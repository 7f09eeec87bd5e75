package sema

import (
	"sync"

	"algspec/internal/lang"
	"algspec/internal/sig"
	"algspec/internal/spec"
	"algspec/internal/term"
)

// ReadGround reads the ground term src of sp in one pass: lang.ScanExpr
// lays the expression out flat, the names are resolved against sp's
// signature with CheckGroundExpr's sort rules, and the term is built
// bottom-up from the flat nodes. expected is the root sort, or "" to
// infer it.
//
// With in nil, ReadGround returns a tree Equal to what CheckGroundExpr
// returns for lang.ParseExpr(src). Otherwise it interns the term into
// in and returns the node in.Canon would return for that tree; only the
// nodes in lacked are allocated. It reports false exactly where
// ParseExpr or CheckGroundExpr reports an error, and then has interned
// nothing: a caller that needs the error asks them.
func ReadGround(sp *spec.Spec, src string, expected sig.Sort, in *term.Interner) (*term.Term, bool) {
	r := borrowReader()
	defer returnReader(r)
	var ok bool
	if r.nodes, ok = lang.ScanExpr(r.nodes[:0], src); !ok {
		return nil, false
	}
	r.sig = sp.Sig
	if cap(r.sorts) < len(r.nodes) {
		r.sorts = make([]sig.Sort, len(r.nodes))
	}
	r.sorts = r.sorts[:len(r.nodes)]
	if !r.resolve(0, expected) {
		return nil, false
	}
	if in == nil {
		return r.tree(), true
	}
	return r.intern(in), true
}

// reader is the reusable working memory of ReadGround: the flat nodes,
// their resolved sorts, and the build stack.
type reader struct {
	sig   *sig.Signature
	nodes []lang.Node
	sorts []sig.Sort
	stack []*term.Term
	args  []*term.Term
}

// resolve assigns sorts to the subtree at node i, which is required to
// have the expected sort ("" to infer), and reports whether
// CheckGroundExpr would accept it. A call's Text becomes the
// signature's own spelling of its name, and a conditional's becomes
// term.IfOp, so the built term holds no substring of the source but its
// atom spellings.
func (r *reader) resolve(i int32, expected sig.Sort) bool {
	n := &r.nodes[i]
	switch n.Kind {
	case lang.NodeError:
		if expected == "" {
			return false
		}
		r.sorts[i] = expected
	case lang.NodeAtom:
		so, ok := r.atomSort(n.Anno, expected)
		if !ok {
			return false
		}
		r.sorts[i] = so
	case lang.NodeIf:
		cond := i + 1
		then := r.nodes[cond].End
		els := r.nodes[then].End
		if !r.resolve(cond, sig.BoolSort) {
			return false
		}
		// As in checker.expr: infer from the then-branch, else from the
		// else-branch and check the then-branch against it.
		switch {
		case expected != "":
			if !r.resolve(then, expected) || !r.resolve(els, expected) {
				return false
			}
		case r.resolve(then, ""):
			if !r.resolve(els, r.sorts[then]) {
				return false
			}
		default:
			if !r.resolve(els, "") || !r.resolve(then, r.sorts[els]) {
				return false
			}
		}
		n.Text = term.IfOp
		r.sorts[i] = r.sorts[then]
	default:
		op, ok := r.sig.Op(n.Text)
		if !ok || int(n.Args) != op.Arity() {
			return false
		}
		c := i + 1
		for _, d := range op.Domain {
			if !r.resolve(c, d) {
				return false
			}
			c = r.nodes[c].End
		}
		if expected != "" && op.Range != expected {
			return false
		}
		n.Text = op.Name
		r.sorts[i] = op.Range
	}
	return true
}

// atomSort is checker.atomSort without the messages. A sort it returns
// is the signature's own string or the caller's expected sort, never a
// substring of the source.
func (r *reader) atomSort(anno string, expected sig.Sort) (sig.Sort, bool) {
	switch {
	case anno != "":
		if !r.sig.OpenSort(sig.Sort(anno)) || expected != "" && expected != sig.Sort(anno) {
			return "", false
		}
		if expected != "" {
			return expected, true
		}
		for _, so := range r.sig.Sorts() {
			if string(so) == anno {
				return so, true
			}
		}
		return "", false
	case expected != "":
		return expected, r.sig.OpenSort(expected)
	}
	var only sig.Sort
	open := 0
	for _, so := range r.sig.Sorts() {
		if r.sig.OpenSort(so) {
			only, open = so, open+1
		}
	}
	return only, open == 1
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

// tree builds the resolved term as a fresh tree, in two allocations:
// one for the nodes and one for all argument slices.
func (r *reader) tree() *term.Term {
	ts := make([]term.Term, len(r.nodes))
	argv := make([]*term.Term, len(r.nodes)-1)
	for i := len(r.nodes) - 1; i >= 0; i-- {
		n, t := &r.nodes[i], &ts[i]
		switch n.Kind {
		case lang.NodeAtom:
			*t = term.Term{Kind: term.Atom, Sym: n.Text, Sort: r.sorts[i]}
		case lang.NodeError:
			*t = term.Term{Kind: term.Err, Sym: term.ErrName, Sort: r.sorts[i]}
		default:
			args := argv[:n.Args:n.Args]
			argv = argv[n.Args:]
			copy(args, r.children(i))
			*t = term.Term{Kind: term.Op, Sym: n.Text, Sort: r.sorts[i], Args: args}
		}
		r.stack = append(r.stack, t)
	}
	return r.stack[0]
}

// intern interns the resolved term bottom-up, node by node, through the
// interner's own constructors: the same nodes, in the same order, that
// Canon of the tree would intern.
func (r *reader) intern(in *term.Interner) *term.Term {
	for i := len(r.nodes) - 1; i >= 0; i-- {
		n := &r.nodes[i]
		var t *term.Term
		switch n.Kind {
		case lang.NodeAtom:
			t = in.Atom(n.Text, r.sorts[i])
		case lang.NodeError:
			t = in.Err(r.sorts[i])
		default:
			t = in.Op(n.Text, r.sorts[i], r.children(i)...)
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

// freeReaders is the process-wide free list of readers. Like the
// rewrite machine's scratch sets it is a list under a mutex, not a
// sync.Pool, so a GC cycle does not make the next reads allocate.
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
// nodes' texts, the built terms through the stack — so an idle reader
// keeps neither a request nor an interner alive, and lists it for
// reuse unless its buffers grew past the bound.
func returnReader(r *reader) {
	// Neither the stack nor the argument list of one read grows past
	// its node count, and the previous read cleared what it used.
	used := len(r.nodes)
	clear(r.nodes)
	clear(r.sorts)
	clear(r.stack[:min(used, cap(r.stack))])
	clear(r.args[:min(used, cap(r.args))])
	r.nodes, r.sorts, r.stack, r.args = r.nodes[:0], r.sorts[:0], r.stack[:0], r.args[:0]
	r.sig = nil
	if cap(r.nodes) > maxPooledNodes {
		return
	}
	freeReaders.mu.Lock()
	defer freeReaders.mu.Unlock()
	if len(freeReaders.readers) < maxFreeReaders {
		freeReaders.readers = append(freeReaders.readers, r)
	}
}
