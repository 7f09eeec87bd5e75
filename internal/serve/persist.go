package serve

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"algspec/internal/metrics"
)

// This file is the durability layer of the normal-form cache (DESIGN
// §13): an append-only, integrity-digested log of (version, spec, term)
// → (normal form, steps) entries, so a restarted replica answers its
// first request from the warm cache instead of paying the cold path
// again. The log is the whole store: each entry is written once, when it
// is first computed, and the store's capacity bound keeps it finite. It
// holds innermost results only. The layout under Config.PersistDir:
//
//	specs/<hex>.spec   canonical source of each uploaded version
//	                   (content-addressed: the filename is the version
//	                   hash, so corruption is self-evident)
//	nf.wal             walHeader, then every persisted entry, one line
//	                   each, prefixed with a truncated SHA-256 of the
//	                   line's payload
//
// Corruption anywhere is rejected loudly: load returns an error naming
// the file and line, and the server falls back to a cold start (the
// cache is an accelerator, never a source of truth) with the log started
// afresh. Both files store only strings, never pointers — the
// canonical-term text is re-parsed and re-interned at boot, which is
// what makes the entries portable across processes.

// walRecord is one persisted cache entry. Term and NF are canonical
// spellings; Sort is the term's root sort, which disambiguates bare
// atoms and error values when the NF text is parsed back at boot.
type walRecord struct {
	Version string `json:"version"`
	Spec    string `json:"spec"`
	Sort    string `json:"sort"`
	Term    string `json:"term"`
	NF      string `json:"nf"`
	Steps   int    `json:"steps"`
}

const (
	walFile  = "nf.wal"
	specsDir = "specs"
	// walHeader is the first line of every log. A log written before
	// the normal-form cache kept one entry per strategy has no header,
	// and may hold outermost answers under innermost keys; boot reads a
	// non-empty log without it as unreadable.
	walHeader = "# adt nf.wal v2: innermost entries"
)

// maxWALLine bounds one WAL line, newline excluded, for the writer and
// the reader alike. A record holds a term and a normal form of up to
// maxBodyBytes each, plus the digest, the other fields and the JSON
// framing. The writer skips a record whose line would be longer, so
// that every line it writes is one the next boot can read.
const maxWALLine = 2*maxBodyBytes + 4<<10

// persister owns the persist directory. A nil *persister (no
// Config.PersistDir) is valid and makes every method a no-op, mirroring
// the nil cache. seen holds the key of every entry in the log — seeded
// from the log at boot and grown with every append — so an entry is
// written at most once and len(seen) counts the store against its cap.
type persister struct {
	dir string
	cap int

	mu   sync.Mutex
	seen map[string]struct{}
	wal  *os.File

	walRecords   atomic.Int64 // entries appended to the WAL since boot
	dropped      atomic.Int64 // entries not persisted (capacity)
	persistErrs  atomic.Int64 // I/O or integrity errors (boot load, saves)
	staleSkipped atomic.Int64 // records for versions this boot cannot resolve
	warmLoaded   atomic.Int64 // cache entries installed warm at boot
}

// newPersister prepares the directory tree and opens the WAL for
// appending. cap bounds the entries the log holds; entries beyond it are
// counted in dropped, never silently lost track of.
func newPersister(dir string, cap int) (*persister, error) {
	if err := os.MkdirAll(filepath.Join(dir, specsDir), 0o755); err != nil {
		return nil, err
	}
	wal, err := os.OpenFile(filepath.Join(dir, walFile), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	p := &persister{
		dir:  dir,
		cap:  cap,
		seen: make(map[string]struct{}),
		wal:  wal,
	}
	// A new or empty log gets its header now; a non-empty one is checked
	// by the boot that reads it.
	st, err := wal.Stat()
	if err == nil && st.Size() == 0 {
		err = p.restart()
	}
	if err != nil {
		wal.Close()
		return nil, err
	}
	return p, nil
}

// declareMetrics declares the persistence books; a server without
// PersistDir has none.
func (p *persister) declareMetrics(r *metrics.Registry) {
	r.Counter("adt_persist_wal_records_total", "Normal-form entries appended to the WAL since boot.", p.walRecords.Load)
	r.Counter("adt_persist_dropped_total", "Entries not persisted because the store hit its capacity bound or their WAL line would exceed the line cap.", p.dropped.Load)
	r.Counter("adt_persist_errors_total", "Persistence I/O or integrity errors (a nonzero value at boot means a corrupt store forced a cold start).", p.persistErrs.Load)
	r.Counter("adt_persist_stale_skipped_total", "Persisted entries skipped because their version is unknown to this boot.", p.staleSkipped.Load)
	r.Gauge("adt_warm_entries", "Cache entries installed warm at boot (persisted store plus corpus warming).", p.warmLoaded.Load)
}

func recordKey(rec walRecord) string {
	return rec.Version + "\x00" + rec.Spec + "\x00" + rec.Term
}

// append books one freshly computed entry and writes it to the WAL.
// Called on the cold path only (the entry was just normalized), so the
// write syscall hides behind a full normalization. An entry whose line
// would exceed maxWALLine is dropped, not written: the next boot could
// not read it back.
func (p *persister) append(rec walRecord) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	key := recordKey(rec)
	if _, dup := p.seen[key]; dup {
		return
	}
	// Encoding only lengthens the strings, so a record whose term and
	// normal form alone pass the cap is dropped without being encoded.
	if len(p.seen) >= p.cap || len(rec.Term)+len(rec.NF) > maxWALLine {
		p.dropped.Add(1)
		return
	}
	line, err := json.Marshal(rec)
	if err != nil {
		// rec is our own struct of strings and an int; cannot fail.
		panic(fmt.Sprintf("serve: marshaling wal record: %v", err))
	}
	digest := lineDigest(line)
	if len(digest)+1+len(line) > maxWALLine {
		p.dropped.Add(1)
		return
	}
	p.seen[key] = struct{}{}
	fmt.Fprintf(p.wal, "%s %s\n", digest, line)
	p.walRecords.Add(1)
}

// seed books the records restored from the log, which already holds
// them, so they are not written again.
func (p *persister) seed(recs []walRecord) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, rec := range recs {
		key := recordKey(rec)
		if _, dup := p.seen[key]; dup {
			continue
		}
		if len(p.seen) >= p.cap {
			p.dropped.Add(1)
			continue
		}
		p.seen[key] = struct{}{}
	}
}

// restart empties the log down to its header, at first boot or after a
// boot could not read it, so that the entries this process appends are
// readable at the next boot instead of sitting behind the corrupt line
// forever.
func (p *persister) restart() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.wal.Truncate(0); err != nil {
		return err
	}
	_, err := io.WriteString(p.wal, walHeader+"\n")
	return err
}

// saveSpec persists an uploaded version's canonical source under its
// content address. Idempotent: the same version always writes the same
// bytes to the same name.
func (p *persister) saveSpec(id, canonicalSource string) error {
	if p == nil {
		return nil
	}
	name := strings.TrimPrefix(id, "sha256:") + ".spec"
	return os.WriteFile(filepath.Join(p.dir, specsDir, name), []byte(canonicalSource), 0o644)
}

// close releases the WAL handle.
func (p *persister) close() {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	_ = p.wal.Close()
}

// lineDigest is the truncated SHA-256 prefix guarding one WAL line.
func lineDigest(payload []byte) string {
	sum := sha256.Sum256(payload)
	return hex.EncodeToString(sum[:8])
}

// loadNFStore reads the WAL back, verifying the header and every
// digest. Any corruption — a missing header, a flipped byte in a
// record, a truncated line, a forged digest — returns an error naming
// the file and line; the caller falls back to a cold start. A missing
// or empty log holds no records.
func loadNFStore(dir string) ([]walRecord, error) {
	wal := filepath.Join(dir, walFile)
	data, err := os.ReadFile(wal)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	recs, err := parseWAL(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", wal, err)
	}
	return recs, nil
}

func parseWAL(data []byte) ([]walRecord, error) {
	var recs []walRecord
	sc := bufio.NewScanner(strings.NewReader(string(data)))
	// The scanner's buffer must hold a line and its newline.
	sc.Buffer(nil, maxWALLine+1)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if lineNo == 1 {
			if line != walHeader {
				return nil, fmt.Errorf("wal line 1: no format header (written before per-strategy cache keys)")
			}
			continue
		}
		if line == "" {
			continue
		}
		digest, payload, ok := strings.Cut(line, " ")
		if !ok {
			return nil, fmt.Errorf("wal line %d: no digest prefix", lineNo)
		}
		if lineDigest([]byte(payload)) != digest {
			return nil, fmt.Errorf("wal line %d: digest mismatch (corrupt or tampered record)", lineNo)
		}
		var rec walRecord
		if err := json.Unmarshal([]byte(payload), &rec); err != nil {
			return nil, fmt.Errorf("wal line %d: %w", lineNo, err)
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return recs, nil
}

// persistedSpec is one upload read back from specs/<hex>.spec: the
// version id its file name claims, and its source.
type persistedSpec struct {
	id, source string
}

// loadSpecSources reads back every persisted upload in file-name order.
// It returns each source with the id its name claims; the caller checks
// that claim against the registry's content address before registering
// it. Unreadable files are returned as errors alongside the rest: one
// bad upload must not take out the others.
func loadSpecSources(dir string) (specs []persistedSpec, errs []error) {
	entries, err := os.ReadDir(filepath.Join(dir, specsDir))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, []error{err}
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".spec") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	for _, name := range names {
		path := filepath.Join(dir, specsDir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		specs = append(specs, persistedSpec{id: "sha256:" + strings.TrimSuffix(name, ".spec"), source: string(data)})
	}
	return specs, errs
}
