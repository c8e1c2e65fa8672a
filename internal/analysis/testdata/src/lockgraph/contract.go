// Direct-call-site cases: calls to //qcpa:locks-annotated functions
// with and without the mutex held, across branches, goroutines, defers,
// and stored closures; re-locking a held mutex.
package lockgraph

import "sync"

type counter struct {
	mu sync.Mutex
	n  int
}

// bumpLocked increments the counter. Callers hold mu.
//
//qcpa:locks mu
func (c *counter) bumpLocked() { c.n++ }

// drainLocked resets the counter, delegating to another annotated
// function: its own contract satisfies the callee's precondition.
//
//qcpa:locks mu
func (c *counter) drainLocked() int {
	c.bumpLocked()
	v := c.n
	c.n = 0
	return v
}

func (c *counter) Bump() {
	c.mu.Lock()
	c.bumpLocked()
	c.mu.Unlock()
}

func (c *counter) BumpDeferred() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.bumpLocked()
}

func (c *counter) BumpUnlocked() {
	c.bumpLocked() // want "not provably held"
}

func (c *counter) BumpAfterUnlock() {
	c.mu.Lock()
	c.bumpLocked()
	c.mu.Unlock()
	c.bumpLocked() // want "not provably held"
}

// relockLocked is annotated but re-acquires its own precondition mutex.
//
//qcpa:locks mu
func (c *counter) relockLocked() {
	c.mu.Lock() // want "deadlock on entry"
	c.n++
	c.mu.Unlock()
}

func (c *counter) DoubleLock() {
	c.mu.Lock()
	c.mu.Lock() // want "double lock"
	c.mu.Unlock()
}

func (c *counter) BumpInGoroutine() {
	c.mu.Lock()
	defer c.mu.Unlock()
	go c.bumpLocked() // want "never held in a goroutine/deferred call"
}

func (c *counter) BumpInGoroutineLit() {
	c.mu.Lock()
	defer c.mu.Unlock()
	go func() {
		c.bumpLocked() // want "not provably held"
	}()
}

func (c *counter) BumpDeferredCall() {
	c.mu.Lock()
	defer c.bumpLocked() // want "never held in a goroutine/deferred call"
	c.mu.Unlock()
}

func (c *counter) BumpStoredClosure() func() {
	c.mu.Lock()
	defer c.mu.Unlock()
	f := func() {
		c.bumpLocked() // want "not provably held"
	}
	return f
}

func (c *counter) BumpImmediateClosure() {
	c.mu.Lock()
	defer c.mu.Unlock()
	func() {
		c.bumpLocked() // immediate invocation inherits the held state
	}()
}

func (c *counter) EarlyReturnBranch(cond bool) {
	c.mu.Lock()
	if cond {
		c.mu.Unlock()
		return
	}
	c.bumpLocked() // the unlocking branch returned: still held here
	c.mu.Unlock()
}

func (c *counter) LeakyBranch(cond bool) {
	c.mu.Lock()
	if cond {
		c.mu.Unlock()
	}
	c.bumpLocked() // want "not provably held"
}
