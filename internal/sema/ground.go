package sema

import (
	"fmt"
	"sync"

	"algspec/internal/ast"
	"algspec/internal/lang"
	"algspec/internal/sig"
	"algspec/internal/spec"
	"algspec/internal/term"
)

// ReadGround reads the ground term src of sp in one pass: lang.AppendExpr
// lays the expression out flat, the checker resolves its names and sorts
// against sp's signature, and the term is built bottom-up from the flat
// nodes. expected is the root sort, or "" to infer it.
//
// With in nil, ReadGround returns the term as a fresh tree. Otherwise it
// interns the term into in and returns the node in.Canon would return
// for that tree; only the nodes in lacked are allocated. A rejected term
// interns nothing, and the error is the parser's ErrorList or the
// checker's *Error.
func ReadGround(sp *spec.Spec, src string, expected sig.Sort, in *term.Interner) (*term.Term, error) {
	r := borrowReader()
	defer returnReader(r)
	var err error
	if r.nodes, err = lang.AppendExpr(r.nodes[:0], src); err != nil {
		return nil, err
	}
	r.sp = sp
	if !r.check(expected) {
		return nil, r.err()
	}
	if in == nil {
		return r.tree(), nil
	}
	return r.intern(in), nil
}

// reader checks flat expressions against one specification and builds
// their terms: the axioms' sides, with variables in scope and the
// left-hand side's restrictions, and ground terms, with neither. It
// holds its working memory, so a pooled reader reads without
// allocating.
type reader struct {
	sp *spec.Spec
	// vars are the variables in scope (nil for a ground term), and lhs
	// says whether the expression is an axiom's left-hand side, where
	// neither conditionals nor error may appear.
	vars  map[string]sig.Sort
	lhs   bool
	nodes ast.Expr
	heads []head
	stack []*term.Term
	args  []*term.Term
	fail  failure
}

// head is what the checker resolved one node to: the kind, symbol and
// sort of its term. The symbol is the signature's own spelling of an
// operation and term.IfOp for a conditional, so a built term holds no
// substring of the source but its atom spellings and variable names.
type head struct {
	kind term.Kind
	sym  string
	sort sig.Sort
}

// problem names what a check found wrong.
type problem uint8

const (
	errorOnLHS problem = iota + 1
	errorUninferred
	ifOnLHS
	annoNotOpen
	annoMismatch
	expectedNotOpen
	noAtomSorts
	atomAmbiguous
	varSort
	varApplied
	unknownOp
	wrongArity
	wrongRange
)

// failure is the problem that ended a check, at a node under an
// expected sort; err builds its message only when it is reported, so a
// check that fails and is retried, as a conditional's branch inference
// does, allocates nothing.
type failure struct {
	problem  problem
	node     int32
	expected sig.Sort
}

// term checks r.nodes and builds its tree.
func (r *reader) term(expected sig.Sort) (*term.Term, error) {
	if !r.check(expected) {
		return nil, r.err()
	}
	return r.tree(), nil
}

// check sizes the heads for r.nodes and checks the whole expression.
func (r *reader) check(expected sig.Sort) bool {
	if cap(r.heads) < len(r.nodes) {
		r.heads = make([]head, len(r.nodes))
	}
	r.heads = r.heads[:len(r.nodes)]
	return r.expr(0, expected)
}

// expr resolves the subtree at node i, which is required to have the
// expected sort ("" to infer), recording each node's head. It stops at
// the first problem, recording it in r.fail, and reports false.
func (r *reader) expr(i int32, expected sig.Sort) bool {
	n := &r.nodes[i]
	switch n.Kind {
	case ast.Error:
		switch {
		case r.lhs:
			return r.failAt(i, errorOnLHS, expected)
		case expected == "":
			return r.failAt(i, errorUninferred, expected)
		}
		r.heads[i] = head{term.Err, term.ErrName, expected}
	case ast.Atom:
		so, p := r.atomSort(n.Anno, expected)
		if p != 0 {
			return r.failAt(i, p, expected)
		}
		r.heads[i] = head{term.Atom, n.Text, so}
	case ast.If:
		if r.lhs {
			return r.failAt(i, ifOnLHS, expected)
		}
		cond := i + 1
		then := r.nodes[cond].End
		els := r.nodes[then].End
		if !r.expr(cond, sig.BoolSort) {
			return false
		}
		// Infer from the then-branch, else from the else-branch and
		// check the then-branch against it.
		switch {
		case expected != "":
			if !r.expr(then, expected) || !r.expr(els, expected) {
				return false
			}
		case r.expr(then, ""):
			if !r.expr(els, r.heads[then].sort) {
				return false
			}
		default:
			if !r.expr(els, "") || !r.expr(then, r.heads[els].sort) {
				return false
			}
		}
		r.heads[i] = head{term.Op, term.IfOp, r.heads[then].sort}
	default:
		// A bare or applied name: a variable first, then an operation.
		if !n.Parens && n.Args == 0 {
			if so, ok := r.vars[n.Text]; ok {
				if expected != "" && so != expected {
					return r.failAt(i, varSort, expected)
				}
				r.heads[i] = head{term.Var, n.Text, so}
				return true
			}
		}
		op, ok := r.sp.Sig.Op(n.Text)
		if !ok {
			if _, isVar := r.vars[n.Text]; isVar {
				return r.failAt(i, varApplied, expected)
			}
			return r.failAt(i, unknownOp, expected)
		}
		if int(n.Args) != op.Arity() {
			return r.failAt(i, wrongArity, expected)
		}
		c := i + 1
		for _, d := range op.Domain {
			if !r.expr(c, d) {
				return false
			}
			c = r.nodes[c].End
		}
		if expected != "" && op.Range != expected {
			return r.failAt(i, wrongRange, expected)
		}
		r.heads[i] = head{term.Op, op.Name, op.Range}
	}
	return true
}

// atomSort decides an atom literal's sort from its annotation and the
// expected sort. A sort it returns is the signature's own string or the
// caller's expected sort, never a substring of the source.
func (r *reader) atomSort(anno string, expected sig.Sort) (sig.Sort, problem) {
	if anno != "" {
		if !r.sp.Sig.OpenSort(sig.Sort(anno)) {
			return "", annoNotOpen
		}
		if expected != "" && expected != sig.Sort(anno) {
			return "", annoMismatch
		}
	}
	if expected != "" {
		if !r.sp.Sig.OpenSort(expected) {
			return "", expectedNotOpen
		}
		return expected, 0
	}
	open := r.openSorts()
	for _, so := range open {
		if string(so) == anno {
			return so, 0
		}
	}
	switch len(open) {
	case 0:
		return "", noAtomSorts
	case 1:
		return open[0], 0
	default:
		return "", atomAmbiguous
	}
}

// openSorts lists the atom and parameter sorts in declaration order.
func (r *reader) openSorts() []sig.Sort {
	var open []sig.Sort
	for _, so := range r.sp.Sig.Sorts() {
		if r.sp.Sig.OpenSort(so) {
			open = append(open, so)
		}
	}
	return open
}

// failAt records problem p at node i and reports false.
func (r *reader) failAt(i int32, p problem, expected sig.Sort) bool {
	r.fail = failure{problem: p, node: i, expected: expected}
	return false
}

// err builds the message of the recorded failure.
func (r *reader) err() error {
	n, want := &r.nodes[r.fail.node], r.fail.expected
	var msg string
	switch r.fail.problem {
	case errorOnLHS:
		msg = "error may not appear on the left-hand side of an axiom"
	case errorUninferred:
		msg = "cannot infer the sort of error here; annotate the context"
	case ifOnLHS:
		msg = "conditionals may not appear on the left-hand side of an axiom"
	case annoNotOpen:
		msg = fmt.Sprintf("'%s: %s is not an atom or parameter sort", n.Text, n.Anno)
	case annoMismatch:
		msg = fmt.Sprintf("'%s has sort %s, but %s is required here", n.Text, n.Anno, want)
	case expectedNotOpen:
		msg = fmt.Sprintf("'%s used where sort %s is required, but %s is not an atom or parameter sort", n.Text, want, want)
	case noAtomSorts:
		msg = fmt.Sprintf("'%s used, but no atom sorts are in scope", n.Text)
	case atomAmbiguous:
		msg = fmt.Sprintf("'%s is ambiguous (atom sorts in scope: %v); annotate as '%s:Sort", n.Text, r.openSorts(), n.Text)
	case varSort:
		msg = fmt.Sprintf("variable %s has sort %s, but %s is required here", n.Text, r.vars[n.Text], want)
	case varApplied:
		msg = fmt.Sprintf("variable %s cannot be applied to arguments", n.Text)
	case unknownOp:
		msg = fmt.Sprintf("unknown operation %s", n.Text)
	case wrongArity:
		op := r.sp.Sig.MustOp(n.Text)
		msg = fmt.Sprintf("operation %s applied to %d arguments, wants %d (%s)", n.Text, n.Args, op.Arity(), op)
	case wrongRange:
		msg = fmt.Sprintf("operation %s has range %s, but %s is required here", n.Text, r.sp.Sig.MustOp(n.Text).Range, want)
	}
	return &Error{Spec: r.sp.Name, Pos: n.Pos, Msg: msg}
}

// children pops node i's built children off the stack into r.args, in
// argument order. The nodes are built last to first, so a node's first
// child is on top.
func (r *reader) children(i int) []*term.Term {
	k := int(r.nodes[i].Args)
	top := len(r.stack)
	args := r.args[:0]
	for j := top - 1; j >= top-k; j-- {
		args = append(args, r.stack[j])
	}
	r.stack = r.stack[:top-k]
	r.args = args
	return args
}

// tree builds the checked term as a fresh tree, in two allocations:
// one for the nodes and one for all argument slices.
func (r *reader) tree() *term.Term {
	ts := make([]term.Term, len(r.nodes))
	argv := make([]*term.Term, len(r.nodes)-1)
	r.stack = r.stack[:0]
	for i := len(r.nodes) - 1; i >= 0; i-- {
		h, t := &r.heads[i], &ts[i]
		*t = term.Term{Kind: h.kind, Sym: h.sym, Sort: h.sort}
		if k := r.nodes[i].Args; k > 0 {
			t.Args = argv[:k:k]
			argv = argv[k:]
			copy(t.Args, r.children(i))
		}
		r.stack = append(r.stack, t)
	}
	return r.stack[0]
}

// intern interns the checked ground term bottom-up, node by node,
// through the interner's own constructors: the same nodes, in the same
// order, that Canon of the tree would intern.
func (r *reader) intern(in *term.Interner) *term.Term {
	r.stack = r.stack[:0]
	for i := len(r.nodes) - 1; i >= 0; i-- {
		h := &r.heads[i]
		var t *term.Term
		switch h.kind {
		case term.Atom:
			t = in.Atom(h.sym, h.sort)
		case term.Err:
			t = in.Err(h.sort)
		default:
			t = in.Op(h.sym, h.sort, r.children(i)...)
		}
		r.stack = append(r.stack, t)
	}
	return r.stack[0]
}

const (
	// maxFreeReaders bounds the free list; a reader returned to a full
	// list is dropped.
	maxFreeReaders = 8
	// maxPooledNodes bounds the node buffer a pooled reader keeps, so
	// one huge term leaves no high-water buffers behind.
	maxPooledNodes = 1 << 12
)

// freeReaders is the process-wide free list of ReadGround's readers.
// Like the rewrite machine's scratch sets it is a list under a mutex,
// not a sync.Pool, so a GC cycle does not make the next reads allocate.
var freeReaders struct {
	mu      sync.Mutex
	readers []*reader
}

func borrowReader() *reader {
	freeReaders.mu.Lock()
	defer freeReaders.mu.Unlock()
	if n := len(freeReaders.readers); n > 0 {
		r := freeReaders.readers[n-1]
		freeReaders.readers = freeReaders.readers[:n-1]
		return r
	}
	return &reader{}
}

// returnReader clears what r references — the source through the
// nodes and heads, the built terms through the stack — so an idle
// reader keeps neither a request nor an interner alive, and lists it
// for reuse unless its buffers grew past the bound.
func returnReader(r *reader) {
	// Neither the stack nor the argument list of one read grows past
	// its node count, and the previous read cleared what it used.
	used := len(r.nodes)
	clear(r.nodes)
	clear(r.heads)
	clear(r.stack[:min(used, cap(r.stack))])
	clear(r.args[:min(used, cap(r.args))])
	r.nodes, r.heads, r.stack, r.args = r.nodes[:0], r.heads[:0], r.stack[:0], r.args[:0]
	r.sp, r.fail = nil, failure{}
	if cap(r.nodes) > maxPooledNodes {
		return
	}
	freeReaders.mu.Lock()
	defer freeReaders.mu.Unlock()
	if len(freeReaders.readers) < maxFreeReaders {
		freeReaders.readers = append(freeReaders.readers, r)
	}
}
