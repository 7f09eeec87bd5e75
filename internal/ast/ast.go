// Package ast defines the parse tree of the specification language. The
// surface syntax follows the paper's two-part presentation: a syntactic
// specification (the ops block) and a set of relations (the axioms block).
//
// A complete specification looks like:
//
//	spec Queue
//	  uses Bool
//	  param Item
//
//	  ops
//	    new      : -> Queue
//	    add      : Queue, Item -> Queue
//	    front    : Queue -> Item
//	    remove   : Queue -> Queue
//	    isEmpty? : Queue -> Bool
//
//	  vars
//	    q : Queue
//	    i : Item
//
//	  axioms
//	    [1] isEmpty?(new) = true
//	    [2] isEmpty?(add(q, i)) = false
//	    [3] front(new) = error
//	    [4] front(add(q, i)) = if isEmpty?(q) then i else front(q)
//	    [5] remove(new) = error
//	    [6] remove(add(q, i)) = if isEmpty?(q) then new else add(remove(q), i)
//	end
//
// Identifiers may contain the characters the paper uses in operation names
// (letters, digits, _, ., ?), so IS_EMPTY? and IS.NEWSTACK? are legal
// spellings. Atom literals are written 'x, optionally sort-annotated as
// 'x:Identifier. Comments run from "--" to end of line.
//
// An expression is not a tree of nodes but one flat run of them in
// prefix order (Expr), the form the parser appends and the checker and
// the formatter walk: one buffer per expression, which a reader of many
// request terms can reuse.
package ast

import "fmt"

// Pos is a source position (1-based line and column).
type Pos struct {
	Line int
	Col  int
}

func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// File is a parsed source file: one or more specifications.
type File struct {
	Specs []*Spec
}

// Spec is one "spec Name ... end" block.
type Spec struct {
	Name string
	Pos  Pos
	// Uses lists the specifications whose signatures and axioms this one
	// builds on (the paper's layering).
	Uses []Use
	// Params are parameter sorts ("param Item").
	Params []SortDecl
	// Atoms are atom-bearing sorts ("atoms Identifier").
	Atoms []SortDecl
	// Sorts are auxiliary sorts beyond the principal one ("sorts Pair").
	Sorts  []SortDecl
	Ops    []*OpDecl
	Vars   []*VarDecl
	Axioms []*Axiom
}

// Use references another specification by name.
type Use struct {
	Name string
	Pos  Pos
}

// SortDecl declares a sort.
type SortDecl struct {
	Name string
	Pos  Pos
}

// OpDecl declares one operation's functionality.
type OpDecl struct {
	Name   string
	Domain []string
	Range  string
	Pos    Pos
	// Native marks "native" operations whose semantics the engine
	// supplies (e.g. same? on atoms). Written "native op : ... -> ...".
	Native bool
}

// VarDecl declares typed free variables for use in axioms; one decl may
// introduce several names of the same sort ("q, r : Queue").
type VarDecl struct {
	Names []string
	Sort  string
	Pos   Pos
}

// Axiom is one relation lhs = rhs, optionally labelled "[n]".
type Axiom struct {
	Label string
	LHS   Expr
	RHS   Expr
	Pos   Pos
}

// Expr is a surface expression laid out flat in prefix order: Expr[0]
// is the root, and each node is followed by its children's subtrees,
// first child first. sema resolves names and sorts.
type Expr []Node

// Kind discriminates the four expression forms.
type Kind uint8

const (
	// Call is an applied or bare name: add(q, i), new, q. Whether a
	// bare name is a variable or a nullary operation is decided by sema.
	Call Kind = iota
	// Atom is an atom literal 'x, optionally annotated 'x:Sort.
	Atom
	// Error is the distinguished error value.
	Error
	// If is the conditional special form; its three children are the
	// condition and the two branches.
	If
)

// Node is one expression of an Expr.
type Node struct {
	Kind Kind
	// Parens records whether a call's (possibly empty) argument list
	// was written, so "new()" is accepted and "q()" can be rejected.
	Parens bool
	// Args counts the node's children.
	Args int32
	// End is the index one past the node's subtree.
	End int32
	// Text is a call's name or an atom's spelling, as a substring of
	// the source.
	Text string
	// Anno is an atom's sort annotation, or "".
	Anno string
	Pos  Pos
}
