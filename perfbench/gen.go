package main

import (
	"fmt"
	"math/rand"
	"strings"
)

// A genTerm is one generated request term together with the normal form
// a native Go model of its specification predicts. The models — a FIFO
// slice for Queue, a slice for List, ints for Nat, a slice with
// set semantics for Set, a block stack for Symboltable — share no code
// with the rewrite engine, so they can judge both of its tiers.
type genTerm struct {
	Spec     string
	Term     string
	NF       string
	Strategy string // "" (innermost) or "outermost"
	Trace    bool
}

// termGen draws terms from a seeded source. Every draw is a pure
// function of the seed and the draws before it.
type termGen struct {
	r *rand.Rand
}

func newTermGen(seed int64) *termGen { return &termGen{r: rand.New(rand.NewSource(seed))} }

// atom returns a quoted atom of one or two letters.
func (g *termGen) atom() string {
	const letters = "abcdefghijklmnopqrstuvwxyz"
	if g.r.Intn(4) == 0 {
		return "'" + string(letters[g.r.Intn(26)]) + string(letters[g.r.Intn(26)])
	}
	return "'" + string(letters[g.r.Intn(26)])
}

// queue builds an E1-shaped Queue term of exactly ops operations
// (adds, removes of a non-empty queue, and one root observer) over the
// given constructor names, so renamed copies of Queue reuse the model.
func (g *termGen) queue(spec string, ops int) genTerm {
	var fifo []string
	t := "new"
	for i := 0; i < ops-1; i++ {
		if len(fifo) > 0 && g.r.Intn(3) == 0 {
			t = "remove(" + t + ")"
			fifo = fifo[1:]
			continue
		}
		a := g.atom()
		t = "add(" + t + ", " + a + ")"
		fifo = append(fifo, a)
	}
	switch k := g.r.Intn(10); {
	case k < 6 && len(fifo) > 0:
		return genTerm{Spec: spec, Term: "front(" + t + ")", NF: fifo[0]}
	case k < 7:
		return genTerm{Spec: spec, Term: "isEmpty?(" + t + ")", NF: fmt.Sprint(len(fifo) == 0)}
	default:
		nf := "new"
		for _, a := range fifo {
			nf = "add(" + nf + ", " + a + ")"
		}
		return genTerm{Spec: spec, Term: t, NF: nf}
	}
}

func nat(n int) string {
	return strings.Repeat("succ(", n) + "zero" + strings.Repeat(")", n)
}

// nat builds an addN/eqN/ltN/pred term over Peano literals.
func (g *termGen) nat() genTerm {
	sum := func() (string, int) {
		a, b, c := g.r.Intn(12), g.r.Intn(12), g.r.Intn(12)
		return fmt.Sprintf("addN(addN(%s, %s), %s)", nat(a), nat(b), nat(c)), a + b + c
	}
	switch g.r.Intn(4) {
	case 0:
		t, n := sum()
		return genTerm{Spec: "Nat", Term: t, NF: nat(n)}
	case 1:
		t, n := sum()
		m := g.r.Intn(36)
		return genTerm{Spec: "Nat", Term: fmt.Sprintf("eqN(%s, %s)", t, nat(m)), NF: fmt.Sprint(n == m)}
	case 2:
		t, n := sum()
		m := g.r.Intn(36)
		return genTerm{Spec: "Nat", Term: fmt.Sprintf("ltN(%s, %s)", nat(m), t), NF: fmt.Sprint(m < n)}
	default:
		t, n := sum()
		if n == 0 {
			return genTerm{Spec: "Nat", Term: "pred(" + t + ")", NF: "error"}
		}
		return genTerm{Spec: "Nat", Term: "pred(" + t + ")", NF: nat(n - 1)}
	}
}

func consList(xs []string) string {
	t := "nil"
	for i := len(xs) - 1; i >= 0; i-- {
		t = "cons(" + xs[i] + ", " + t + ")"
	}
	return t
}

// list builds a List observation over 3–12 elements.
func (g *termGen) list() genTerm {
	xs := make([]string, 3+g.r.Intn(10))
	for i := range xs {
		xs[i] = g.atom()
	}
	l := consList(xs)
	switch g.r.Intn(5) {
	case 0:
		return genTerm{Spec: "List", Term: "lengthL(" + l + ")", NF: nat(len(xs))}
	case 1:
		rev := make([]string, len(xs))
		for i, x := range xs {
			rev[len(xs)-1-i] = x
		}
		return genTerm{Spec: "List", Term: "reverseL(" + l + ")", NF: consList(rev)}
	case 2:
		e := g.atom()
		in := false
		for _, x := range xs {
			in = in || x == e
		}
		return genTerm{Spec: "List", Term: "memberL?(" + l + ", " + e + ")", NF: fmt.Sprint(in)}
	case 3:
		ys := []string{g.atom(), g.atom()}
		return genTerm{Spec: "List", Term: "lengthL(appendL(" + l + ", " + consList(ys) + "))", NF: nat(len(xs) + 2)}
	default:
		return genTerm{Spec: "List", Term: "head(reverseL(" + l + "))", NF: xs[len(xs)-1]}
	}
}

func insertChain(xs []string) string {
	t := "emptyset"
	for _, x := range xs {
		t = "insert(" + t + ", " + x + ")"
	}
	return t
}

// set builds a Set observation over an insert chain that may repeat
// elements.
func (g *termGen) set() genTerm {
	xs := make([]string, 3+g.r.Intn(8))
	for i := range xs {
		if i > 0 && g.r.Intn(4) == 0 {
			xs[i] = xs[g.r.Intn(i)]
		} else {
			xs[i] = g.atom()
		}
	}
	s := insertChain(xs)
	member := func(e string) bool {
		for _, x := range xs {
			if x == e {
				return true
			}
		}
		return false
	}
	switch g.r.Intn(3) {
	case 0:
		distinct := map[string]bool{}
		for _, x := range xs {
			distinct[x] = true
		}
		return genTerm{Spec: "Set", Term: "card(" + s + ")", NF: nat(len(distinct))}
	case 1:
		e := g.atom()
		return genTerm{Spec: "Set", Term: "isMember?(" + s + ", " + e + ")", NF: fmt.Sprint(member(e))}
	default:
		e := xs[g.r.Intn(len(xs))]
		var kept []string
		for _, x := range xs {
			if x != e {
				kept = append(kept, x)
			}
		}
		return genTerm{Spec: "Set", Term: "delete(" + s + ", " + e + ")", NF: insertChain(kept)}
	}
}

// symtab builds a Symboltable observation over a random block history.
func (g *termGen) symtab() genTerm {
	type binding struct{ id, attrs string }
	blocks := [][]binding{nil}
	t := "init"
	for i := 3 + g.r.Intn(10); i > 0; i-- {
		switch k := g.r.Intn(6); {
		case k == 0:
			t = "enterblock(" + t + ")"
			blocks = append(blocks, nil)
		case k == 1 && len(blocks) > 1:
			t = "leaveblock(" + t + ")"
			blocks = blocks[:len(blocks)-1]
		default:
			b := binding{g.atom(), g.atom()}
			t = "add(" + t + ", " + b.id + ", " + b.attrs + ")"
			blocks[len(blocks)-1] = append(blocks[len(blocks)-1], b)
		}
	}
	id := g.atom()
	if g.r.Intn(2) == 0 {
		for _, bl := range blocks {
			if len(bl) > 0 {
				id = bl[g.r.Intn(len(bl))].id
			}
		}
	}
	if g.r.Intn(2) == 0 {
		in := false
		for _, b := range blocks[len(blocks)-1] {
			in = in || b.id == id
		}
		return genTerm{Spec: "Symboltable", Term: "isInblock?(" + t + ", " + id + ")", NF: fmt.Sprint(in)}
	}
	nf := "error"
	for i := len(blocks) - 1; i >= 0 && nf == "error"; i-- {
		for j := len(blocks[i]) - 1; j >= 0; j-- {
			if blocks[i][j].id == id {
				nf = blocks[i][j].attrs
				break
			}
		}
	}
	return genTerm{Spec: "Symboltable", Term: "retrieve(" + t + ", " + id + ")", NF: nf}
}

// coldTerm draws from the cold-normalize mix: mostly innermost Queue
// terms of 16–48 operations (compiled tier), List, Nat, Set and
// Symboltable terms, about one in eight outermost Queue terms of at most
// ten operations and one in two hundred traced ones (both served by
// the interpreter tier). Outermost Queue terms stay short because the
// outermost step count grows much faster than the innermost one: at 32
// operations it is 8,703 steps against 312.
func (g *termGen) coldTerm() genTerm {
	switch k := g.r.Intn(200); {
	case k < 1:
		t := g.queue("Queue", 4+g.r.Intn(7))
		t.Trace = true
		return t
	case k < 27:
		t := g.queue("Queue", 4+g.r.Intn(7))
		t.Strategy = "outermost"
		return t
	case k < 45:
		return g.list()
	case k < 60:
		return g.nat()
	case k < 78:
		return g.set()
	case k < 96:
		return g.symtab()
	default:
		return g.queue("Queue", 16+g.r.Intn(33))
	}
}

// freshTerms draws n cold terms whose (spec, term) pairs are pairwise
// distinct and absent from seen, so no request of the run can hit the
// parse cache or the normal-form cache, whatever its strategy.
func (g *termGen) freshTerms(n int, seen map[string]bool) []genTerm {
	out := make([]genTerm, 0, n)
	for len(out) < n {
		t := g.coldTerm()
		key := t.Spec + "\x00" + t.Term
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, t)
	}
	return out
}
