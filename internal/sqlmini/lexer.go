package sqlmini

import (
	"fmt"
	"strings"
)

// tokenKind enumerates lexical token types.
type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokKeyword
	tokInt
	tokFloat
	tokString
	tokSymbol // punctuation and operators
)

type token struct {
	kind tokenKind
	text string // keywords upper-cased, identifiers lower-cased
	pos  int
}

var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "GROUP": true, "BY": true,
	"ORDER": true, "LIMIT": true, "ASC": true, "DESC": true, "AS": true,
	"JOIN": true, "INNER": true, "ON": true, "AND": true, "OR": true,
	"NOT": true, "IN": true, "BETWEEN": true, "LIKE": true, "IS": true,
	"NULL": true, "INSERT": true, "INTO": true, "VALUES": true,
	"UPDATE": true, "SET": true, "DELETE": true, "CREATE": true,
	"TABLE": true, "PRIMARY": true, "KEY": true, "INT": true,
	"INTEGER": true, "FLOAT": true, "REAL": true, "TEXT": true,
	"VARCHAR": true, "DISTINCT": true, "COUNT": true, "SUM": true,
	"AVG": true, "MIN": true, "MAX": true, "DROP": true, "HAVING": true,
}

// lex tokenizes a SQL string.
func lex(src string) ([]token, error) {
	var toks []token
	i := 0
	n := len(src)
	for i < n {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '-' && i+1 < n && src[i+1] == '-': // line comment
			for i < n && src[i] != '\n' {
				i++
			}
		case isIdentChar(c) && (c < '0' || c > '9'): // ASCII only: a byte of anything else is an error below
			j := i
			for j < n && (isIdentChar(src[j])) {
				j++
			}
			word := src[i:j]
			up := strings.ToUpper(word)
			if keywords[up] {
				toks = append(toks, token{tokKeyword, up, i})
			} else {
				toks = append(toks, token{tokIdent, strings.ToLower(word), i})
			}
			i = j
		case c >= '0' && c <= '9' || (c == '.' && i+1 < n && src[i+1] >= '0' && src[i+1] <= '9'):
			j := i
			isFloat := false
			for j < n && (src[j] >= '0' && src[j] <= '9' || src[j] == '.') {
				if src[j] == '.' {
					isFloat = true
				}
				j++
			}
			if j < n && (src[j] == 'e' || src[j] == 'E') {
				isFloat = true
				j++
				if j < n && (src[j] == '+' || src[j] == '-') {
					j++
				}
				for j < n && src[j] >= '0' && src[j] <= '9' {
					j++
				}
			}
			k := tokInt
			if isFloat {
				k = tokFloat
			}
			toks = append(toks, token{k, src[i:j], i})
			i = j
		case c == '\'':
			j := i + 1
			var sb strings.Builder
			for {
				if j >= n {
					return nil, fmt.Errorf("sqlmini: unterminated string at %d", i)
				}
				if src[j] == '\'' {
					if j+1 < n && src[j+1] == '\'' { // escaped quote
						sb.WriteByte('\'')
						j += 2
						continue
					}
					break
				}
				sb.WriteByte(src[j])
				j++
			}
			toks = append(toks, token{tokString, sb.String(), i})
			i = j + 1
		default:
			// Multi-char operators first.
			two := ""
			if i+1 < n {
				two = src[i : i+2]
			}
			switch two {
			case "<=", ">=", "<>", "!=":
				toks = append(toks, token{tokSymbol, two, i})
				i += 2
				continue
			}
			switch c {
			case '=', '<', '>', '+', '-', '*', '/', '(', ')', ',', '.', ';', '%':
				toks = append(toks, token{tokSymbol, string(c), i})
				i++
			default:
				return nil, fmt.Errorf("sqlmini: unexpected character %q at %d", c, i)
			}
		}
	}
	toks = append(toks, token{tokEOF, "", n})
	return toks, nil
}

func isIdentChar(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}
