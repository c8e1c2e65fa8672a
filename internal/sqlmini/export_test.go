package sqlmini

// MaxJoinTables is the most tables one SELECT may join.
const MaxJoinTables = maxJoinTables

// GroupKey returns what identifies a group in the plan the SELECT sql
// gets against e's current view (selectPlan.groupKey), one column name
// or expression per element.
func GroupKey(e *Engine, sql string) ([]string, error) {
	st, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	p, err := e.buildPlan(st.AST.(*SelectStmt), e.loadView())
	if err != nil {
		return nil, err
	}
	key := make([]string, len(p.groupKey))
	for i, ke := range p.groupKey {
		key[i] = exprString(ke)
	}
	return key, nil
}
