// Embedding regression cases: annotations on methods of embedded /
// promoted types must resolve through the embedding, both when the
// mutex itself is an embedded sync.Mutex (promoted Lock/Unlock) and
// when the annotated method is promoted from an embedded struct.
package lockgraph

import "sync"

// reg embeds the mutex anonymously: Lock/Unlock are promoted, and the
// annotation names the implicit field, "Mutex".
type reg struct {
	sync.Mutex
	n int
}

//qcpa:locks Mutex
func (r *reg) addLocked() { r.n++ }

func (r *reg) Add() {
	r.Lock()
	r.addLocked() // promoted Lock() holds the embedded Mutex: clean
	r.Unlock()
}

func (r *reg) AddUnlocked() {
	r.addLocked() // want "not provably held"
}

//qcpa:locks Mutex
func (r *reg) relockEmbedded() {
	r.Lock() // want "deadlock on entry"
	r.n++
	r.Unlock()
}

// inner's annotated method is promoted into outer.
type inner struct {
	mu sync.Mutex
	n  int
}

//qcpa:locks mu
func (i *inner) bumpInnerLocked() { i.n++ }

type outer struct {
	inner
	extra int
}

func (o *outer) BumpHeld() {
	o.mu.Lock()
	o.bumpInnerLocked() // promoted annotated method, mutex held: clean
	o.mu.Unlock()
}

func (o *outer) BumpUnlocked() {
	o.bumpInnerLocked() // want "not provably held"
}

// deep embeds reg one level further: Lock/Unlock promote through two
// embedding hops and still resolve to the innermost field, "Mutex".
type deep struct {
	reg
}

func (d *deep) Add() {
	d.Lock()
	d.addLocked()
	d.Unlock()
}
