package registry_test

import (
	"slices"
	"strings"
	"testing"

	"algspec/internal/registry"
	"algspec/internal/speclib"
)

// counterSrc is an upload that uses the base library's Bool and Nat.
const counterSrc = `
spec Counter
  uses Bool, Nat
  ops
    start : -> Counter
    inc   : Counter -> Counter
    undo  : Counter -> Counter
    value : Counter -> Nat
  vars c : Counter
  axioms
    [u1] undo(start) = error
    [u2] undo(inc(c)) = c
    [v1] value(start) = zero
    [v2] value(inc(c)) = succ(value(c))
end
`

func newRegistry(t *testing.T) *registry.Registry {
	t.Helper()
	r, err := registry.New(speclib.Sources)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// The version id is the content address of the canonical source: a
// reformatted re-upload lands on the same version without creating one,
// and ID names it without registering anything.
func TestRegisterIsContentAddressed(t *testing.T) {
	r := newRegistry(t)
	id, err := r.ID(counterSrc)
	if err != nil {
		t.Fatal(err)
	}
	v, created, err := r.Register(counterSrc)
	if err != nil || !created {
		t.Fatalf("first upload: created = %v, err = %v", created, err)
	}
	if v.ID != id {
		t.Errorf("Register id %s, ID %s", v.ID, id)
	}
	reformatted := "-- the same counter\n" + strings.ReplaceAll(counterSrc, "\n", "\n\n")
	again, created, err := r.Register(reformatted)
	if err != nil || created || again != v {
		t.Errorf("reformatted upload: version %v (want %s), created = %v, err = %v", again.ID, v.ID, created, err)
	}
	if r.Len() != 2 {
		t.Errorf("Len = %d, want 2 (base and one upload)", r.Len())
	}
}

// An upload is checked and compiled on top of the base library's specs,
// with systems of its own, and the base environment does not grow.
func TestUploadUsesBaseLibrary(t *testing.T) {
	r := newRegistry(t)
	base := r.Base().Env
	names := base.Names()
	v, _, err := r.Register(counterSrc)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(v.Specs, []string{"Counter"}) {
		t.Errorf("upload specs = %v", v.Specs)
	}
	nf, err := v.Env.Eval("Counter", "value(undo(inc(inc(start))))")
	if err != nil || nf.String() != "succ(zero)" {
		t.Errorf("eval = %v, %v; want succ(zero)", nf, err)
	}
	if !slices.Equal(base.Names(), names) {
		t.Errorf("base names grew: %v", base.Names())
	}
	uploadNat, err := v.Env.System("Nat")
	if err != nil {
		t.Fatal(err)
	}
	baseNat, err := base.System("Nat")
	if err != nil {
		t.Fatal(err)
	}
	if uploadNat.Interner() == baseNat.Interner() {
		t.Error("the upload shares the base version's interner")
	}
}

// An upload may not redefine a base spec, and must define at least one.
func TestRegisterRejects(t *testing.T) {
	r := newRegistry(t)
	for src, want := range map[string]string{
		"spec Queue\n  uses Bool\n  ops\n    new : -> Queue\nend\n": "Queue already loaded",
		"-- nothing but a comment\n":                                "no specifications",
	} {
		if v, _, err := r.Register(src); err == nil {
			t.Errorf("%q: registered as %s, want an error", src, v.ID)
		} else if !strings.Contains(err.Error(), want) {
			t.Errorf("%q: err = %v, want it to mention %q", src, err, want)
		}
	}
	if r.Len() != 1 {
		t.Errorf("Len = %d after rejected uploads, want 1", r.Len())
	}
}
