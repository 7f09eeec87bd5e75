package term_test

import (
	"testing"

	"algspec/internal/corpus"
	"algspec/internal/speclib"
	"algspec/internal/term"
)

// TestStableHashParsedMatchesCanon: the cluster router shards on a
// parsed term's StableHash without interning it, while the replica
// that caches the term holds its canonical node. For every golden
// corpus term the parsed term's hash must equal its canonical node's
// hash in two independent interners (router and replicas each own
// theirs).
func TestStableHashParsedMatchesCanon(t *testing.T) {
	env := speclib.BaseEnv()
	a, b := term.NewInterner(), term.NewInterner()
	n := 0
	for _, spec := range corpus.BatterySpecs() {
		for _, src := range corpus.Battery(spec) {
			parsed, err := env.ParseTerm(spec, src)
			if err != nil {
				t.Fatalf("%s %q: %v", spec, src, err)
			}
			h := parsed.StableHash()
			if ha, hb := a.Canon(parsed).StableHash(), b.Canon(parsed).StableHash(); ha != h || hb != h {
				t.Errorf("%s %q: parsed term hashes to %x, its canonical nodes to %x and %x", spec, src, h, ha, hb)
			}
			n++
		}
	}
	if n < 90 {
		t.Fatalf("checked %d golden terms, want the whole battery (92)", n)
	}
}
