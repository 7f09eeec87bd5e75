// The compiled evaluation tier: an abstract rewrite machine that lowers
// each rule group to a flat, register-addressed match program and each
// right-hand side to a slot-indexed build program, then runs both in a
// small VM loop over arena-allocated scratch terms (term.Arena).
//
// Relationship to the other tier — the engine is layered as
//
//	program            immutable compiled artifacts (rules, index,
//	                   machine), shared by Forks
//	  └─ machine tier  flat match/build programs + arena scratch terms,
//	                   the fast path
//	  └─ interpreter   per-rule subst.MatchBind over the head index —
//	                   the reference semantics and the tier for configs
//	                   the machine does not serve (trace, outermost
//	                   strategy, ablations)
//
// and every entry point (Normalize, NormalizeAll, the checkers, axtest,
// serve) goes through the one Eval seam in rewrite.go, which picks the
// tier per System configuration.
//
// Each rule group's patterns compile to straight-line code over a
// register file. Register 0 holds the subject; loads move child slots
// into registers; checks compare a register against the pattern shape
// and jump to the next rule's entry on failure. First accepting rule
// wins, and because rules are laid out in ascending index order that is
// exactly the interpreter's first match in priority order. Check
// semantics mirror subst.MatchBind precisely: a variable never matches
// error and respects sorts; a repeated variable re-checks structural
// equality against the register that captured the first occurrence.
//
// Build programs are evaluation trees executed call-by-value: each
// operation application in a rule's right-hand side evaluates its
// children first (registers reuse captured, already-normal subterms;
// constants reuse the rule's own interned RHS nodes) and then
// dispatches on the head symbol directly over the evaluated children —
// the redex node itself is never materialized. Only genuine normal
// forms become scratch terms (term.Arena), so a rewrite chain allocates
// one node per surviving constructor instead of one per fired rule.
// Conditionals are tree nodes too, giving every if — root or nested —
// the interpreter's lazy semantics without building the if term.
package rewrite

import (
	"algspec/internal/sig"
	"algspec/internal/term"
)

// mOpcode discriminates match-program instructions.
type mOpcode uint8

const (
	// mRoot heads every program at pc 0: the subject must have k
	// arguments (its head symbol is already right — programs are
	// selected by dispatch table), loaded into regs[b..b+k-1]. runMatch
	// performs it before the instruction loop, which starts at pc 1.
	mRoot mOpcode = iota
	// mOpL fails unless regs[a] is the operation sym with k arguments;
	// on success the arguments are loaded into regs[b..b+k-1].
	mOpL
	// mAtom fails unless regs[a] is the atom sym of the given sort.
	mAtom
	// mErr fails unless regs[a] is the error value.
	mErr
	// mVar fails unless regs[a] can bind a variable of the given sort:
	// not error, and sorts equal. The register itself is the capture.
	mVar
	// mEq fails unless regs[a] structurally equals regs[b] (non-linear
	// pattern: b captured the variable's first occurrence).
	mEq
	// mAccept ends the program: rule k matched.
	mAccept
)

// minstr is one match-program instruction. fail is the pc to jump to
// when the check does not hold: the next rule's entry point, or -1 for
// overall match failure.
type minstr struct {
	op   mOpcode
	a, b int
	k    int
	fail int
	sym  string
	sort sig.Sort
}

// matchProg is the compiled matcher for one head symbol's rule group.
type matchProg struct {
	code  []minstr
	nregs int
}

// bOpcode discriminates build-tree node kinds.
type bOpcode uint8

const (
	// bConst evaluates to the node's lit (an interned RHS subtree),
	// normalized on first use — a ground subtree may still hold redexes.
	bConst bOpcode = iota
	// bReg evaluates to frame[a] — a subterm captured during matching,
	// already in normal form and never the error value (mVar saw it).
	bReg
	// bMk evaluates its children left to right, then applies the
	// operation: dispatch on the head symbol over the evaluated children
	// and fire the matching rule without materializing the redex node.
	// Only when no rule applies is a scratch node built — it is a normal
	// form by construction.
	bMk
	// bIf is a conditional anywhere in the right-hand side: evaluate the
	// condition, charge one if-step, evaluate only the taken branch. The
	// if term and the untaken branch are never materialized; a symbolic
	// condition leaves the residual the interpreter would.
	bIf
)

// buildNode is one node of a compiled right-hand side's evaluation
// tree. The tree mirrors the RHS term with variables resolved to
// match-frame registers and ground subtrees collapsed to constants.
type buildNode struct {
	op   bOpcode
	a    int      // bReg: register index
	sym  string   // bMk: head symbol
	sort sig.Sort // bMk/bIf: result sort (error/residual cases)
	// lit is bConst's interned RHS subtree, and the subtree a ground tail
	// bMk or bIf stands for (compileNode); nil on every other node.
	lit *term.Term
	// sid is bMk's precomputed dispatch index for the head symbol
	// (machine.symID): the evaluator dispatches through the dense
	// program.dispID table instead of the per-symbol map.
	sid  uint32
	kids []buildNode
}

// machine is the compiled tier's immutable artifact set, hanging off
// program next to the rule list and head index.
type machine struct {
	progs  map[string]*matchProg
	builds []buildNode
	// symID numbers (from 1) every head symbol a build tree can apply;
	// program.dispID is the matching dense dispatch table.
	symID map[string]uint32
}

// compileMachine lowers the rule list to match and build programs. Rules
// sharing a head symbol concatenate in priority (index) order, each
// rule's failure edges pointing at the next rule's entry.
func compileMachine(rules []Rule) *machine {
	m := &machine{
		progs:  make(map[string]*matchProg),
		builds: make([]buildNode, len(rules)),
	}
	groups := make(map[string][]int)
	for i, r := range rules {
		groups[r.LHS.Sym] = append(groups[r.LHS.Sym], i)
	}
	for sym, idxs := range groups {
		m.progs[sym] = compileMatchGroup(rules, idxs, m.builds, groups)
	}
	m.symID = make(map[string]uint32)
	id := func(sym string) uint32 {
		if v, ok := m.symID[sym]; ok {
			return v
		}
		v := uint32(len(m.symID) + 1)
		m.symID[sym] = v
		return v
	}
	var assign func(n *buildNode)
	assign = func(n *buildNode) {
		if n.op == bMk {
			n.sid = id(n.sym)
		}
		for i := range n.kids {
			assign(&n.kids[i])
		}
	}
	for i := range m.builds {
		assign(&m.builds[i])
	}
	return m
}

// compileMatchGroup emits one rule group's match program and, as a side
// effect, each rule's build tree (the register assignment produced
// while walking a pattern is exactly the slot map its RHS needs). groups
// holds every rule group, keyed by head symbol.
func compileMatchGroup(rules []Rule, idxs []int, builds []buildNode, groups map[string][]int) *matchProg {
	p := &matchProg{}
	// The group shares one head symbol, and a symbol has one arity, so
	// the root check-and-load runs once at pc 0 rather than per rule: a
	// failed rule retries from its successor's first sub-check with the
	// root children still in registers 1..k.
	arity := len(rules[idxs[0]].LHS.Args)
	p.code = append(p.code, minstr{op: mRoot, a: 0, k: arity, b: 1, fail: -1})
	var pending []int // instruction indices whose fail edge awaits the next rule's entry
	for _, ri := range idxs {
		entry := len(p.code)
		for _, pc := range pending {
			p.code[pc].fail = entry
		}
		pending = pending[:0]
		check := func(ins minstr) {
			ins.fail = -1 // patched to the next rule's entry, or left -1 after the last
			p.code = append(p.code, ins)
			pending = append(pending, len(p.code)-1)
		}
		lhs := rules[ri].LHS
		regs := map[string]int{}
		next := 1 + arity
		var walk func(pat *term.Term, r int)
		walk = func(pat *term.Term, r int) {
			switch pat.Kind {
			case term.Var:
				check(minstr{op: mVar, a: r, sort: pat.Sort})
				if old, seen := regs[pat.Sym]; seen {
					check(minstr{op: mEq, a: r, b: old})
				} else {
					regs[pat.Sym] = r
				}
			case term.Atom:
				check(minstr{op: mAtom, a: r, sym: pat.Sym, sort: pat.Sort})
			case term.Err:
				check(minstr{op: mErr, a: r})
			default:
				base := next
				next += len(pat.Args)
				check(minstr{op: mOpL, a: r, sym: pat.Sym, k: len(pat.Args), b: base})
				for i, c := range pat.Args {
					walk(c, base+i)
				}
			}
		}
		for i, c := range lhs.Args {
			walk(c, 1+i)
		}
		p.code = append(p.code, minstr{op: mAccept, k: ri})
		if next > p.nregs {
			p.nregs = next
		}
		builds[ri] = compileNode(rules[ri].RHS, regs, groups, true)
	}
	if p.nregs == 0 {
		p.nregs = 1
	}
	return p
}

// compileNode lowers a right-hand side to its evaluation tree. Subtrees
// containing no bound variable compile to constants holding the rule's
// own interned nodes, preserving subst.Bindings.Build's sharing
// behaviour — except in tail position (the root, and the branches of a
// tail if), where a ground subtree rooted at a ruled head or an if stays
// a build node, so that evalBuild continues a chain through it instead
// of nesting a normalizeCompiled call per step. A conditional — at the
// root or nested inside an operation argument — becomes a bIf node:
// evaluation order, step charges and results are exactly the
// interpreter's lazy if on the materialized term.
func compileNode(rhs *term.Term, regs map[string]int, groups map[string][]int, tail bool) buildNode {
	if rhs.Kind == term.Var {
		if r, ok := regs[rhs.Sym]; ok {
			return buildNode{op: bReg, a: r}
		}
		return buildNode{op: bConst, lit: rhs}
	}
	ground := !containsBound(rhs, regs)
	if ground && !(tail && rhs.Kind == term.Op && (rhs.IsIf() || groups[rhs.Sym] != nil)) {
		return buildNode{op: bConst, lit: rhs}
	}
	var n buildNode
	if rhs.IsIf() && len(rhs.Args) == 3 {
		n = buildNode{op: bIf, sort: rhs.Sort, kids: []buildNode{
			compileNode(rhs.Args[0], regs, groups, false),
			compileNode(rhs.Args[1], regs, groups, tail),
			compileNode(rhs.Args[2], regs, groups, tail),
		}}
	} else {
		kids := make([]buildNode, len(rhs.Args))
		for i, a := range rhs.Args {
			kids[i] = compileNode(a, regs, groups, false)
		}
		n = buildNode{op: bMk, sym: rhs.Sym, sort: rhs.Sort, kids: kids}
	}
	if ground {
		n.lit = rhs
	}
	return n
}

// containsBound reports whether t contains a variable the pattern binds.
func containsBound(t *term.Term, regs map[string]int) bool {
	if t.Kind == term.Var {
		_, ok := regs[t.Sym]
		return ok
	}
	for _, a := range t.Args {
		if containsBound(a, regs) {
			return true
		}
	}
	return false
}

// runMatch executes a match program against subject over the register
// frame the caller carved from the register stack: the root
// check-and-load (mRoot at pc 0) runs here, the rest in runMatchLoaded.
// Captures stay in regs for the rule's build; a guarded build protects
// its frame by bumping the stack top, so nested evaluations match above
// it.
func (s *System) runMatch(p *matchProg, subject *term.Term, regs []*term.Term) int {
	root := &p.code[0]
	if len(subject.Args) != root.k {
		return -1
	}
	loadArgs(regs, root.b, subject.Args)
	return s.runMatchLoaded(p, regs)
}

// runMatchLoaded runs a match program whose root children already sit
// in registers 1..k, their count checked by the caller: runMatch loads
// them from a subject node, evalBuild evaluates a virtual root's
// children there. Execution therefore starts past the mRoot
// instruction. Register 0 is never read: no instruction other than
// mRoot addresses it (patterns are rooted at an operation, so the
// subject is never re-inspected after its children are loaded), and
// build trees only read capture registers.
func (s *System) runMatchLoaded(p *matchProg, regs []*term.Term) int {
	code := p.code
	for pc := 1; ; {
		ins := &code[pc]
		ok := true
		switch ins.op {
		case mOpL:
			t := regs[ins.a]
			if ok = t.Kind == term.Op && len(t.Args) == ins.k && t.Sym == ins.sym; ok {
				loadArgs(regs, ins.b, t.Args)
			}
		case mAtom:
			t := regs[ins.a]
			ok = t.Kind == term.Atom && t.Sym == ins.sym && t.Sort == ins.sort
		case mErr:
			ok = regs[ins.a].Kind == term.Err
		case mVar:
			t := regs[ins.a]
			ok = t.Kind != term.Err && t.Sort == ins.sort
		case mEq:
			ok = regs[ins.b].Equal(regs[ins.a])
		case mAccept:
			return ins.k
		}
		if ok {
			pc++
		} else if pc = ins.fail; pc < 0 {
			return -1
		}
	}
}

// loadArgs stores a node's children into consecutive registers. The
// small arities are unrolled: a bulk typed copy pays a write-barrier
// range setup per call, which dominates at the one- and two-child
// shapes that make up almost every pattern. Every store is guarded by
// a compare: register frames are reused across evaluations, repeated
// workloads land the same pointers in the same slots, and a skipped
// store is a skipped GC write barrier — the engine's hottest stores
// otherwise dominate the mark phase.
func loadArgs(regs []*term.Term, b int, args []*term.Term) {
	switch len(args) {
	case 1:
		setReg(regs, b, args[0])
	case 2:
		setReg(regs, b, args[0])
		setReg(regs, b+1, args[1])
	default:
		for i, a := range args {
			setReg(regs, b+i, a)
		}
	}
}

// setReg writes v into regs[i] unless the slot already holds it (see
// loadArgs for why the compare pays for itself).
func setReg(regs []*term.Term, i int, v *term.Term) {
	if regs[i] != v {
		regs[i] = v
	}
}

// normalizeCompiled is the machine tier's evaluator: same strategy,
// step accounting and special-form semantics as normalizeInnermost, but
// intermediate terms come from the arena and are rewritten in place
// once they are scratch (engine-private by construction — a scratch
// node is referenced exactly once, by the evaluation that built it;
// captured subterms pushed by bReg are already in normal form, so the
// in-place writes below can only target nodes this call owns). Nothing
// scratch survives the call: Normalize interns the result at the Canon
// boundary before the arena is reset. A decided if and a native's
// result continue the loop; a fired rule hands its build tree to
// evalBuild, which runs the rest of the chain.
func (s *System) normalizeCompiled(t *term.Term) (*term.Term, error) {
	for {
		switch t.Kind {
		case term.Var, term.Atom, term.Err:
			return t, nil
		}
		if t.NormalTag() == s.gen {
			return t, nil
		}
		if t.IsIf() {
			cond, err := s.normalizeCompiled(t.Args[0])
			if err != nil {
				return nil, err
			}
			var next *term.Term
			switch {
			case cond.IsTrue():
				next = t.Args[1]
			case cond.IsFalse():
				next = t.Args[2]
			case !cond.IsErr():
				// Symbolic condition: normalize branches and keep the if.
				then, err := s.normalizeCompiled(t.Args[1])
				if err != nil {
					return nil, err
				}
				els, err := s.normalizeCompiled(t.Args[2])
				if err != nil {
					return nil, err
				}
				if cond == t.Args[0] && then == t.Args[1] && els == t.Args[2] {
					return t, nil
				}
				return s.arena.If(t.Sort, cond, then, els), nil
			}
			if err := s.spend(t); err != nil {
				return nil, err
			}
			if next == nil {
				return s.arena.Err(t.Sort), nil
			}
			t = next
			continue
		}

		cur := t
		mutable := t.Scratch()
		for i := 0; i < len(cur.Args); i++ {
			a := cur.Args[i]
			// Inline the already-normal fast paths (leaf kinds, token match)
			// to skip a call per settled argument — the common case once the
			// bottom of a spine has been rewritten. An error argument never
			// takes the token shortcut: all errors share one canonical node,
			// whose stamp must not bypass the strictness check below.
			if a.Kind == term.Var || a.Kind == term.Atom || (a.Kind != term.Err && a.NormalTag() == s.gen) {
				continue
			}
			na, err := s.normalizeCompiled(a)
			if err != nil {
				return nil, err
			}
			if na.IsErr() {
				// Strictness: short-circuit the remaining arguments. The step
				// names the node as it was before its arguments were
				// normalized, as the interpreter's does.
				if err := s.spend(t); err != nil {
					return nil, err
				}
				return s.arena.Err(cur.Sort), nil
			}
			if na != a {
				if !mutable {
					cur = s.arena.CopyOp(cur)
					mutable = true
				}
				cur.Args[i] = na
			}
		}

		var d dispatch
		if h := cur.Hint(); h != 0 {
			d = s.prog.dispID[h]
		} else {
			d = s.prog.disp[cur.Sym]
		}
		if d.native != nil {
			if out, applied := d.native(cur.Args); applied {
				red, _, err := s.fireNative(cur, out)
				if err != nil {
					return nil, err
				}
				t = red
				continue
			}
		}
		if d.mp == nil {
			return cur, nil
		}
		base := s.regTop
		need := base + d.mp.nregs
		if len(s.regStack) < need {
			s.growRegs(base, need)
		}
		regs := s.regStack[base:need]
		ri := s.runMatch(d.mp, cur, regs)
		if ri < 0 {
			return cur, nil
		}
		if err := s.spend(cur); err != nil {
			return nil, err
		}
		s.stats.RuleFires++
		// The fired rule's build tree evaluates directly to a normal form;
		// its evaluations run above this frame on the register stack, so
		// the captures survive without copying.
		s.regTop = need
		red, err := s.evalBuild(&s.prog.mach.builds[ri], regs)
		s.regTop = base
		return red, err
	}
}

// growRegs reallocates the register stack to hold at least need slots,
// copying the live frames below base. Frames below base stay live in the
// old array too (they are read-only while an evaluation above them
// runs), so in-flight builds keep valid captures across the copy. Growth
// is geometric: a divergence that builds a term, such as
// f(x) = s(f(x)), nests one frame per fired rule, and a fixed increment
// would copy the whole live stack every few frames, making a chain of
// depth d cost O(d²).
func (s *System) growRegs(base, need int) {
	ns := make([]*term.Term, max(2*need, need+64))
	copy(ns, s.regStack[:base])
	s.regStack = ns
}

// evalBuild evaluates a build tree over its register-stack frame (kept
// live below the bumped stack top) and returns its normalized result.
// The reduction sequence is exactly the interpreter's on the
// materialized right-hand side — depth-first, left-to-right, innermost,
// with the same strictness short-circuits and step charges — but redex
// nodes are never constructed: a ruled operation's children are
// evaluated straight into a match frame and its rules fire there, and
// conditionals run lazily as bIf nodes. A step that fails materializes
// the term the interpreter would be reducing there, so fuel and
// cancellation errors name the same term on both tiers: a ruled link is
// its head over the children in its frame, and a strictness or if step
// is its build node instantiated over the frame (instantiate).
//
// A tail position — the taken branch of a decided bIf, or the build tree
// of a rule fired at the root of the current node — continues the loop,
// so a rewrite chain of any length runs in one Go frame and one register
// frame. The first ruled link fills its frame at the stack top on entry.
// Each later link still reads the live frame's captures, so it evaluates
// its children in a frame above it and then moves them down onto it.
// Every value return restores the stack top to its entry value; an error
// return leaves it for Normalize to reset.
func (s *System) evalBuild(n *buildNode, frame []*term.Term) (*term.Term, error) {
	top := s.regTop
	for {
		if n.lit != nil && n.lit.NormalTag() == s.gen {
			// A ground subtree may itself hold redexes; the stamp check
			// skips re-normalizing one the outermost Canon already settled.
			s.regTop = top
			return n.lit, nil
		}
		switch n.op {
		case bReg:
			// Captures are already normal and never the error value.
			s.regTop = top
			return frame[n.a], nil
		case bConst:
			s.regTop = top
			return s.normalizeCompiled(n.lit)
		case bIf:
			cond, err := s.evalBuild(&n.kids[0], frame)
			if err != nil {
				return nil, err
			}
			var next *buildNode
			switch {
			case cond.IsTrue():
				next = &n.kids[1]
			case cond.IsFalse():
				next = &n.kids[2]
			case !cond.IsErr():
				// Symbolic condition: normalize both branches, keep the if.
				then, err := s.evalBuild(&n.kids[1], frame)
				if err != nil {
					return nil, err
				}
				els, err := s.evalBuild(&n.kids[2], frame)
				if err != nil {
					return nil, err
				}
				s.regTop = top
				return s.arena.If(n.sort, cond, then, els), nil
			}
			if err := s.spend(nil); err != nil {
				return nil, s.failAt(err, n.instantiate(frame))
			}
			if next == nil {
				s.regTop = top
				return s.arena.Err(n.sort), nil
			}
			n = next
			continue
		}
		// bMk: dispatch on the head symbol. A ruled operation evaluates its
		// children straight into a match frame and fires there; everything
		// else — constructors, native-handled symbols, the never-in-practice
		// arity mismatch — evaluates into a fresh arena vector and
		// materializes. Both short-circuit on an error child exactly like
		// the generic argument pass. The frame is carved and the stack top
		// bumped before the children evaluate, so their nested matches run
		// above it; a stack growth during child evaluation copies the
		// partially filled frame forward, which is why stores go through
		// s.regStack rather than a saved slice.
		d := s.prog.dispID[n.sid]
		k := len(n.kids)
		ruled := d.mp != nil && d.native == nil && d.mp.code[0].k == k
		base := s.regTop
		var args []*term.Term
		if ruled {
			need := base + d.mp.nregs
			if len(s.regStack) < need {
				s.growRegs(base, need)
			}
			s.regTop = need
		} else {
			args = s.arena.ArgSlice(k)
		}
		for i := range n.kids {
			var v *term.Term
			if kid := &n.kids[i]; kid.op == bReg {
				// Register children are already normal and never the error
				// value (strictness ran before their frame's match); loading
				// them inline skips an evalBuild call per capture, the
				// dominant child shape.
				v = frame[kid.a]
			} else {
				var err error
				if v, err = s.evalBuild(kid, frame); err != nil {
					return nil, err
				}
				if v.IsErr() {
					// Strictness: skip the remaining children entirely.
					if err := s.spend(nil); err != nil {
						return nil, s.failAt(err, n.instantiate(frame))
					}
					s.regTop = top
					return s.arena.Err(n.sort), nil
				}
			}
			if ruled {
				setReg(s.regStack, base+1+i, v)
			} else {
				setReg(args, i, v)
			}
		}
		s.regTop = top
		if !ruled {
			t := s.arena.Op(n.sym, n.sort, args)
			t.SetHint(n.sid)
			if d.native != nil || d.mp != nil {
				// Native handlers want a real node with a stable argument
				// vector; a root-arity mismatch just match-fails. The generic
				// evaluator covers both with identical step accounting.
				return s.normalizeCompiled(t)
			}
			return t, nil
		}
		// The live frame is dead once this link's children are evaluated:
		// move them down onto it (the first link filled it in place).
		if base != top {
			loadArgs(s.regStack, top+1, s.regStack[base+1:base+1+k])
		}
		regs := s.regStack[top : top+d.mp.nregs]
		ri := s.runMatchLoaded(d.mp, regs)
		if ri < 0 {
			// No rule applies: the node is its own normal form.
			args = s.arena.ArgSlice(k)
			loadArgs(args, 0, regs[1:1+k])
			t := s.arena.Op(n.sym, n.sort, args)
			t.SetHint(n.sid)
			return t, nil
		}
		if err := s.spend(nil); err != nil {
			// The redex is the head over the children in its frame.
			kids := append([]*term.Term(nil), regs[1:1+k]...)
			return nil, s.failAt(err, term.NewOp(n.sym, n.sort, kids...))
		}
		s.stats.RuleFires++
		s.regTop = top + d.mp.nregs
		n, frame = &s.prog.mach.builds[ri], regs
	}
}

// instantiate materializes a build tree over its frame: the subterm of
// the rule's instantiated right-hand side that the interpreter holds at
// this position. Only a failing step calls it, to name that term in its
// error, so it builds on the heap: a failed chain that built nothing
// would otherwise take a fresh arena chunk just for its error. The
// frame's values may still be scratch nodes, which is why a failed
// normalization's arena is detached rather than recycled.
func (n *buildNode) instantiate(frame []*term.Term) *term.Term {
	if n.lit != nil {
		return n.lit
	}
	if n.op == bReg {
		return frame[n.a]
	}
	args := make([]*term.Term, len(n.kids))
	for i := range n.kids {
		args[i] = n.kids[i].instantiate(frame)
	}
	sym := n.sym
	if n.op == bIf {
		sym = term.IfOp
	}
	return term.NewOp(sym, n.sort, args...)
}

// stampNormal marks an interned normal form (and all subterms) with the
// system's token, so re-normalizing a term that embeds it is O(1) at
// every embedded position — the interpreter gets the same property for
// free by tagging at each recursion level. Subtrees already carrying
// the token are skipped: a canonical node's tag implies its canonical
// subterms were stamped by the same pass that stamped it.
func stampNormal(t *term.Term, gen uint32) {
	if t.NormalTag() == gen {
		return
	}
	for _, a := range t.Args {
		stampNormal(a, gen)
	}
	t.MarkNormalTag(gen)
}
