package lang

// NodeKind discriminates the expression forms of a flat parse.
type NodeKind uint8

const (
	// NodeCall is an operation application or a bare name.
	NodeCall NodeKind = iota
	// NodeAtom is an atom literal, 'x or 'x:Sort.
	NodeAtom
	// NodeError is the error literal.
	NodeError
	// NodeIf is a conditional; its three children are the condition and
	// the two branches.
	NodeIf
)

// Node is one expression of a flat parse. ScanExpr lays an expression
// out in prefix order: each node is followed by its children's
// subtrees, first child first.
type Node struct {
	Kind NodeKind
	// Text is a call's operation name or an atom's spelling, as a
	// substring of the source.
	Text string
	// Anno is an atom's sort annotation, or "".
	Anno string
	// Args counts the node's children.
	Args int32
	// End is the index one past the node's subtree.
	End int32
}

// ScanExpr is ParseExpr for callers that only need to know whether src
// is one well-formed expression, and its shape: it appends the
// expression's nodes to buf and reports true exactly when ParseExpr
// would return no error. It stops at the first problem and reports no
// position or message; a caller that needs them asks ParseExpr, whose
// recovering parser finds every error. Apart from growing buf it
// allocates nothing on success.
func ScanExpr(buf []Node, src string) ([]Node, bool) {
	s := scanner{lx: lexer{src: src, line: 1, col: 1}, nodes: buf}
	s.next()
	ok := s.expr(0) && s.tok.kind == tokEOF
	return s.nodes, ok
}

// scanner is the non-recovering twin of parser's expression grammar.
type scanner struct {
	lx    lexer
	tok   token
	nodes []Node
}

// next advances one token and reports whether the lexer has stayed
// error-free so far (ParseExpr adopts every lexer error it meets).
func (s *scanner) next() bool {
	s.tok = s.lx.next()
	return len(s.lx.errs) == 0
}

// expr scans one expression at the given nesting depth; the root is at
// depth 0, and ParseExpr rejects an expression at maxNestingDepth.
func (s *scanner) expr(depth int) bool {
	if depth >= maxNestingDepth {
		return false
	}
	i := len(s.nodes)
	switch s.tok.kind {
	case tokIf:
		s.nodes = append(s.nodes, Node{Kind: NodeIf, Args: 3})
		if !s.next() || !s.expr(depth+1) || s.tok.kind != tokThen ||
			!s.next() || !s.expr(depth+1) || s.tok.kind != tokElse ||
			!s.next() || !s.expr(depth+1) {
			return false
		}
	case tokError:
		s.nodes = append(s.nodes, Node{Kind: NodeError})
		if !s.next() {
			return false
		}
	case tokAtom:
		s.nodes = append(s.nodes, Node{Kind: NodeAtom, Text: s.tok.text})
		if !s.next() {
			return false
		}
		if s.tok.kind == tokColon {
			if !s.next() || s.tok.kind != tokIdent {
				return false
			}
			s.nodes[i].Anno = s.tok.text
			if !s.next() {
				return false
			}
		}
	case tokIdent:
		s.nodes = append(s.nodes, Node{Kind: NodeCall, Text: s.tok.text})
		if !s.next() {
			return false
		}
		if s.tok.kind == tokLParen {
			if !s.next() {
				return false
			}
			if s.tok.kind != tokRParen {
				for {
					if !s.expr(depth + 1) {
						return false
					}
					s.nodes[i].Args++
					if s.tok.kind != tokComma {
						break
					}
					if !s.next() {
						return false
					}
				}
			}
			if s.tok.kind != tokRParen || !s.next() {
				return false
			}
		}
	default:
		return false
	}
	s.nodes[i].End = int32(len(s.nodes))
	return true
}
