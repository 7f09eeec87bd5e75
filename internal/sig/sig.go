// Package sig implements the syntactic half of an algebraic specification:
// sorts and operation signatures. In Guttag's terminology this is the
// "syntactic specification" of an abstract data type — the names, domains,
// and ranges of the operations associated with the type (CACM 20(6) §2).
//
// A Signature owns a set of sorts and a set of operations over those sorts.
// Sorts come in three flavours:
//
//   - ordinary sorts, introduced by a specification (e.g. Queue, Stack);
//   - parameter sorts, standing for "a type schema rather than a single
//     type" (§3) — e.g. Item in Queue-of-Items;
//   - atom sorts, whose values are an open-ended supply of literal
//     constants written 'x (e.g. Identifier). Atom sorts let the engine
//     decide equality of identifiers natively, playing the role of the
//     paper's independently defined IS_SAME? operation.
//
// Signatures are merged when one specification "uses" another, mirroring
// the paper's layering (Symboltable uses Identifier and Attributelist;
// its representation uses Stack and Array).
package sig

import (
	"fmt"
	"sort"
	"strings"
)

// Sort names a carrier set of the heterogeneous algebra (Birkhoff & Lipson).
type Sort string

// BoolSort is the distinguished boolean sort. Operations whose range is
// BoolSort are the observers used by the completeness and consistency
// checkers (IS_EMPTY?, IS_INBLOCK?, ...).
const BoolSort Sort = "Bool"

// Operation describes one operation of the type: its name and its
// functionality Domain -> Range. Nullary operations (empty Domain) are the
// constants of the algebra (NEW, NEWSTACK, EMPTY, INIT).
type Operation struct {
	Name   string
	Domain []Sort
	Range  Sort
	// Owner is the specification that declared the operation. It is
	// carried so error messages and the CLI can attribute operations
	// after signatures have been merged.
	Owner string
	// Native marks an operation whose meaning is supplied by the engine
	// rather than by axioms (atom equality, atom hashing). Such
	// operations are exempt from sufficient-completeness case analysis.
	Native bool
}

// Arity returns the number of arguments the operation takes.
func (o *Operation) Arity() int { return len(o.Domain) }

// String renders the operation in the paper's arrow notation,
// e.g. "add : Queue, Item -> Queue".
func (o *Operation) String() string {
	if len(o.Domain) == 0 {
		return fmt.Sprintf("%s : -> %s", o.Name, o.Range)
	}
	parts := make([]string, len(o.Domain))
	for i, d := range o.Domain {
		parts[i] = string(d)
	}
	return fmt.Sprintf("%s : %s -> %s", o.Name, strings.Join(parts, ", "), o.Range)
}

// Signature is a set of sorts plus a set of operations over them.
// The zero value is not usable; call New.
type Signature struct {
	name      string
	sorts     map[Sort]bool
	params    map[Sort]bool
	atomSorts map[Sort]bool
	ops       map[string]*Operation
	order     []string // op names in declaration order
	sortOrder []Sort   // sorts in declaration order
}

// New returns an empty signature owned by the named specification.
func New(name string) *Signature {
	return &Signature{
		name:      name,
		sorts:     make(map[Sort]bool),
		params:    make(map[Sort]bool),
		atomSorts: make(map[Sort]bool),
		ops:       make(map[string]*Operation),
	}
}

// AddSort introduces an ordinary sort. Adding a sort twice is an error so
// that merged signatures surface accidental collisions.
func (s *Signature) AddSort(name Sort) error {
	if name == "" {
		return fmt.Errorf("sig: empty sort name")
	}
	if s.sorts[name] {
		return fmt.Errorf("sig: sort %s declared twice", name)
	}
	s.sorts[name] = true
	s.sortOrder = append(s.sortOrder, name)
	return nil
}

// AddParam introduces a parameter sort (a free "type variable" of the
// specification schema, like Item in Queue-of-Items).
func (s *Signature) AddParam(name Sort) error {
	if err := s.AddSort(name); err != nil {
		return err
	}
	s.params[name] = true
	return nil
}

// AddAtomSort introduces a sort whose values are atom literals ('x, 'y, ...).
func (s *Signature) AddAtomSort(name Sort) error {
	if err := s.AddSort(name); err != nil {
		return err
	}
	s.atomSorts[name] = true
	return nil
}

// MarkAtomSort flags an existing sort as atom-bearing.
func (s *Signature) MarkAtomSort(name Sort) error {
	if !s.sorts[name] {
		return fmt.Errorf("sig: cannot mark unknown sort %s as atoms", name)
	}
	s.atomSorts[name] = true
	return nil
}

// HasSort reports whether the sort is known to the signature.
func (s *Signature) HasSort(name Sort) bool { return s.sorts[name] }

// IsParam reports whether the sort is a parameter sort.
func (s *Signature) IsParam(name Sort) bool { return s.params[name] }

// IsAtomSort reports whether the sort admits atom literals.
func (s *Signature) IsAtomSort(name Sort) bool { return s.atomSorts[name] }

// OpenSort reports whether the sort's values are an open-ended supply of
// atoms rather than a finite set of constructor forms: an atom sort, or a
// parameter sort (atoms serve as the arbitrary values a parameter like
// Item ranges over). Ground-term generation, coverage analysis, atom
// literals and reification all treat exactly these sorts as leaves.
func (s *Signature) OpenSort(name Sort) bool { return s.atomSorts[name] || s.params[name] }

// Sorts returns all sorts in declaration order.
func (s *Signature) Sorts() []Sort {
	out := make([]Sort, len(s.sortOrder))
	copy(out, s.sortOrder)
	return out
}

// Declare adds an operation to the signature. Every domain sort and the
// range sort must already be present. Operation names are unique within a
// signature (the paper never overloads names).
func (s *Signature) Declare(op *Operation) error {
	if op.Name == "" {
		return fmt.Errorf("sig: operation with empty name")
	}
	if _, dup := s.ops[op.Name]; dup {
		return fmt.Errorf("sig: operation %s declared twice", op.Name)
	}
	for _, d := range op.Domain {
		if !s.sorts[d] {
			return fmt.Errorf("sig: operation %s: unknown domain sort %s", op.Name, d)
		}
	}
	if !s.sorts[op.Range] {
		return fmt.Errorf("sig: operation %s: unknown range sort %s", op.Name, op.Range)
	}
	if op.Owner == "" {
		op.Owner = s.name
	}
	cp := *op
	cp.Domain = append([]Sort(nil), op.Domain...)
	s.ops[op.Name] = &cp
	s.order = append(s.order, op.Name)
	return nil
}

// Op looks up an operation by name.
func (s *Signature) Op(name string) (*Operation, bool) {
	op, ok := s.ops[name]
	return op, ok
}

// MustOp looks up an operation and panics if it is absent. It is intended
// for code paths that have already validated the name (e.g. speclib).
func (s *Signature) MustOp(name string) *Operation {
	op, ok := s.ops[name]
	if !ok {
		panic(fmt.Sprintf("sig: unknown operation %s in signature %s", name, s.name))
	}
	return op
}

// Ops returns all operations in declaration order.
func (s *Signature) Ops() []*Operation {
	out := make([]*Operation, 0, len(s.order))
	for _, n := range s.order {
		out = append(out, s.ops[n])
	}
	return out
}

// OpsWithRange returns the operations whose range is the given sort, in
// declaration order. These are the candidate constructors of the sort.
func (s *Signature) OpsWithRange(so Sort) []*Operation {
	var out []*Operation
	for _, n := range s.order {
		if s.ops[n].Range == so {
			out = append(out, s.ops[n])
		}
	}
	return out
}

// OpsTaking returns the operations with at least one domain position of the
// given sort, in declaration order. These are the contexts the
// observational-equivalence checker can wrap a value of the sort in.
func (s *Signature) OpsTaking(so Sort) []*Operation {
	var out []*Operation
	for _, n := range s.order {
		for _, d := range s.ops[n].Domain {
			if d == so {
				out = append(out, s.ops[n])
				break
			}
		}
	}
	return out
}

// Merge copies every sort and operation of other into s. Sorts present in
// both are tolerated only if their flavour (param/atom) agrees; duplicate
// operation names must refer to the identical functionality. Merging is how
// a specification absorbs the signatures of the specifications it uses.
func (s *Signature) Merge(other *Signature) error {
	for _, so := range other.sortOrder {
		if s.sorts[so] {
			if s.params[so] != other.params[so] {
				return fmt.Errorf("sig: merge %s into %s: sort %s is a parameter in one signature but not the other", other.name, s.name, so)
			}
			if other.atomSorts[so] {
				s.atomSorts[so] = true
			}
			continue
		}
		s.sorts[so] = true
		s.sortOrder = append(s.sortOrder, so)
		if other.params[so] {
			s.params[so] = true
		}
		if other.atomSorts[so] {
			s.atomSorts[so] = true
		}
	}
	for _, n := range other.order {
		op := other.ops[n]
		if have, ok := s.ops[n]; ok {
			if !sameFunctionality(have, op) {
				return fmt.Errorf("sig: merge %s into %s: operation %s declared with different functionality (%s vs %s)", other.name, s.name, n, have, op)
			}
			continue
		}
		cp := *op
		cp.Domain = append([]Sort(nil), op.Domain...)
		s.ops[n] = &cp
		s.order = append(s.order, n)
	}
	return nil
}

func sameFunctionality(a, b *Operation) bool {
	if a.Range != b.Range || len(a.Domain) != len(b.Domain) {
		return false
	}
	for i := range a.Domain {
		if a.Domain[i] != b.Domain[i] {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of the signature.
func (s *Signature) Clone() *Signature {
	out := New(s.name)
	out.sortOrder = append([]Sort(nil), s.sortOrder...)
	for k, v := range s.sorts {
		out.sorts[k] = v
	}
	for k, v := range s.params {
		out.params[k] = v
	}
	for k, v := range s.atomSorts {
		out.atomSorts[k] = v
	}
	for _, n := range s.order {
		op := s.ops[n]
		cp := *op
		cp.Domain = append([]Sort(nil), op.Domain...)
		out.ops[n] = &cp
	}
	out.order = append([]string(nil), s.order...)
	return out
}

// Validate performs whole-signature sanity checks: every operation's sorts
// exist, and every non-parameter, non-atom sort is inhabited by at least
// one constant or by an operation that can bottom out (so ground-term
// generation terminates).
func (s *Signature) Validate() error {
	for _, n := range s.order {
		op := s.ops[n]
		for _, d := range op.Domain {
			if !s.sorts[d] {
				return fmt.Errorf("sig: %s: operation %s references unknown sort %s", s.name, n, d)
			}
		}
		if !s.sorts[op.Range] {
			return fmt.Errorf("sig: %s: operation %s has unknown range sort %s", s.name, n, op.Range)
		}
	}
	inhabited := s.inhabitedSorts()
	for _, so := range s.sortOrder {
		if s.params[so] || s.atomSorts[so] {
			continue
		}
		if !inhabited[so] {
			return fmt.Errorf("sig: %s: sort %s has no finite ground terms (no constant reachable)", s.name, so)
		}
	}
	return nil
}

// inhabitedSorts computes the least fixed point of "this sort has a finite
// ground term": parameter and atom sorts are inhabited by assumption;
// otherwise a sort is inhabited once some operation with that range has all
// domain sorts inhabited.
func (s *Signature) inhabitedSorts() map[Sort]bool {
	inhabited := make(map[Sort]bool)
	for so := range s.params {
		inhabited[so] = true
	}
	for so := range s.atomSorts {
		inhabited[so] = true
	}
	for changed := true; changed; {
		changed = false
		for _, n := range s.order {
			op := s.ops[n]
			if inhabited[op.Range] {
				continue
			}
			ok := true
			for _, d := range op.Domain {
				if !inhabited[d] {
					ok = false
					break
				}
			}
			if ok {
				inhabited[op.Range] = true
				changed = true
			}
		}
	}
	return inhabited
}

// String renders the whole signature, sorts first then operations, in a
// stable order suitable for golden tests and the CLI's info subcommand.
func (s *Signature) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "signature %s\n", s.name)
	sorts := s.Sorts()
	sort.Slice(sorts, func(i, j int) bool { return sorts[i] < sorts[j] })
	for _, so := range sorts {
		switch {
		case s.params[so]:
			fmt.Fprintf(&b, "  param %s\n", so)
		case s.atomSorts[so]:
			fmt.Fprintf(&b, "  atoms %s\n", so)
		default:
			fmt.Fprintf(&b, "  sort  %s\n", so)
		}
	}
	for _, op := range s.Ops() {
		fmt.Fprintf(&b, "  op    %s\n", op)
	}
	return b.String()
}
