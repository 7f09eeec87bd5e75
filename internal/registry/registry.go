// Package registry is the content-addressed specification registry
// behind `adt serve` (DESIGN §13). A specification source uploaded via
// POST /v1/specs is canonically formatted and hashed; the SHA-256 of
// that canonical text — salted with the identity of the base library it
// was compiled against — is its immutable version id. Uploading the
// same source twice (however it was whitespaced or commented) lands on
// the same version; uploading a changed source mints a new version and
// leaves the old one untouched. Nothing is ever invalidated, only
// superseded, which is what lets every downstream cache — parse cache,
// normal-form cache, persisted snapshots, cluster shard keys — key on
// the version id and keep entries forever.
//
// Every version owns a private core.Env (the base library plus the
// upload), so two versions of "the same" spec never share an interner:
// canonical-term pointers from different versions cannot collide in the
// pointer-keyed normal-form cache.
package registry

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

	"algspec/internal/completion"
	"algspec/internal/core"
	"algspec/internal/format"
)

// Version is one immutable, loaded registry entry.
type Version struct {
	// ID is the content address, "sha256:<hex>". The base library's
	// version hashes its own canonical sources; an upload's version
	// hashes the base id plus the upload's canonical source, so the same
	// upload against a different library is a different version.
	ID string
	// Specs names the specifications this version added, in load order.
	// For the base version that is the whole library.
	Specs []string
	// Source is the canonical formatted source of the upload; empty for
	// the base version (its sources are the embedded library).
	Source string
	// Env is the loaded environment: base library plus the upload.
	Env *core.Env

	// certs lazily caches one confluence certificate per spec name.
	// Versions are content-addressed and immutable, so a certificate
	// computed once holds for the version's whole lifetime — it is never
	// invalidated, matching every other per-version cache.
	certs sync.Map // spec name -> *completion.Certificate
}

// Certificate returns the confluence certificate for the named spec of
// this version, computing it (with default budgets) on first request
// and caching it forever after. Unknown names return nil.
func (v *Version) Certificate(name string) *completion.Certificate {
	if c, ok := v.certs.Load(name); ok {
		return c.(*completion.Certificate)
	}
	sp, ok := v.Env.Get(name)
	if !ok {
		return nil
	}
	c := completion.Complete(sp, completion.Config{})
	// Concurrent first requests race benignly: completion is
	// deterministic, so whichever certificate lands is the certificate.
	actual, _ := v.certs.LoadOrStore(name, c)
	return actual.(*completion.Certificate)
}

// Registry holds the base library version plus every registered upload.
// All methods are safe for concurrent use; versions are immutable once
// returned.
type Registry struct {
	base *Version

	mu    sync.RWMutex
	byID  map[string]*Version
	order []string // upload ids in registration order
}

// New loads the base library sources into the base version and returns
// the registry around it. A source that fails to parse or check fails
// here; each spec's rewrite system is compiled on first use
// (core.Env.System), since compiling cannot fail.
func New(baseSources []string) (*Registry, error) {
	env := core.NewEnv()
	h := sha256.New()
	for _, src := range baseSources {
		if _, err := env.Load(src); err != nil {
			return nil, err
		}
		canon, err := format.Source(src)
		if err != nil {
			return nil, fmt.Errorf("registry: canonicalizing base source: %w", err)
		}
		h.Write([]byte(canon))
		h.Write([]byte{0})
	}
	base := &Version{
		ID:    "sha256:" + hex.EncodeToString(h.Sum(nil)),
		Specs: env.Names(),
		Env:   env,
	}
	return &Registry{
		base: base,
		byID: map[string]*Version{base.ID: base},
	}, nil
}

// Base returns the library version every request without an explicit
// version evaluates against.
func (r *Registry) Base() *Version { return r.base }

// Resolve maps a version id to its entry. The empty id resolves to the
// base version, so clients that never upload never see version ids.
func (r *Registry) Resolve(id string) (*Version, bool) {
	if id == "" {
		return r.base, true
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	v, ok := r.byID[id]
	return v, ok
}

// Register canonicalizes, content-addresses and loads (parses and
// checks) an uploaded source. The returned bool reports whether a new
// version was created; re-registering existing content returns the
// existing version with created == false and does no work beyond the
// hash. Uploads are loaded against the base library only (an upload
// cannot use another upload: its content address could not be
// reproduced without the whole upload history).
func (r *Registry) Register(source string) (v *Version, created bool, err error) {
	canon, id, err := r.address(source)
	if err != nil {
		return nil, false, err
	}
	r.mu.RLock()
	existing, ok := r.byID[id]
	r.mu.RUnlock()
	if ok {
		return existing, false, nil
	}

	// Load outside the lock: uploads are rare and loading is the
	// expensive part. A racing duplicate is resolved below — content
	// addressing makes both loads interchangeable. The upload's env
	// shares the base library's checked specs but compiles its own
	// systems, each on first use.
	env := r.base.Env.Extend()
	added, err := env.Load(canon)
	if err != nil {
		return nil, false, err
	}
	if len(added) == 0 {
		return nil, false, fmt.Errorf("registry: source contains no specifications")
	}
	names := make([]string, len(added))
	for i, sp := range added {
		names[i] = sp.Name
	}
	v = &Version{ID: id, Specs: names, Source: canon, Env: env}

	r.mu.Lock()
	defer r.mu.Unlock()
	if existing, ok := r.byID[id]; ok {
		return existing, false, nil
	}
	r.byID[id] = v
	r.order = append(r.order, id)
	return v, true, nil
}

// ID returns the version id Register would give source, without
// loading it: a caller holding a source under an id it was told (a
// persisted upload, named by its content address) checks the two agree
// before registering.
func (r *Registry) ID(source string) (string, error) {
	_, id, err := r.address(source)
	return id, err
}

// address canonicalizes an upload source and derives its content
// address from the base id and the canonical text.
func (r *Registry) address(source string) (canon, id string, err error) {
	canon, err = format.Source(source)
	if err != nil {
		return "", "", err
	}
	h := sha256.New()
	h.Write([]byte(r.base.ID))
	h.Write([]byte{0})
	h.Write([]byte(canon))
	return canon, "sha256:" + hex.EncodeToString(h.Sum(nil)), nil
}

// Versions returns the base version followed by every upload in
// registration order.
func (r *Registry) Versions() []*Version {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*Version, 0, 1+len(r.order))
	out = append(out, r.base)
	for _, id := range r.order {
		out = append(out, r.byID[id])
	}
	return out
}

// Len reports the number of versions held (base included).
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return 1 + len(r.order)
}
