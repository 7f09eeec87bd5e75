package serve

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// This file is the durability layer of the normal-form cache (DESIGN
// §13): a periodic snapshot plus an append-only write-ahead log of
// (version, spec, term) → (normal form, steps) entries, both integrity-
// digested, so a restarted replica answers its first request from the
// warm cache instead of paying the cold path again. The layout under
// Config.PersistDir:
//
//	specs/<hex>.spec   canonical source of each uploaded version
//	                   (content-addressed: the filename is the version
//	                   hash, so corruption is self-evident)
//	nf.snapshot        full entry set at the last snapshot, with a
//	                   trailing SHA-256 over the payload
//	nf.wal             entries appended since that snapshot, one line
//	                   each, prefixed with a truncated SHA-256 of the
//	                   line's payload
//
// Corruption anywhere is rejected loudly: load returns an error naming
// the file and the server falls back to a cold start (the cache is an
// accelerator, never a source of truth). Both files store only strings,
// never pointers — the canonical-term text is re-parsed and re-interned
// at boot, which is what makes the entries portable across processes.

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
	snapshotFile   = "nf.snapshot"
	walFile        = "nf.wal"
	specsDir       = "specs"
	snapshotHeader = "adt-nf-snapshot v1"
	snapshotFooter = "sha256 "
)

// persister owns the persist directory. A nil *persister (no
// Config.PersistDir) is valid and makes every method a no-op, mirroring
// the nil cache. The in-memory record set is the snapshot's source: it
// is seeded from the previous snapshot+WAL at boot and grows with every
// appended entry, so a snapshot always captures everything known, not
// just what the current LRU happens to retain.
type persister struct {
	dir string
	cap int

	mu   sync.Mutex
	seen map[string]struct{}
	recs []walRecord
	wal  *os.File

	walRecords   atomic.Int64 // entries appended to the WAL since boot
	snapshots    atomic.Int64 // snapshots written since boot
	dropped      atomic.Int64 // entries not persisted (capacity)
	persistErrs  atomic.Int64 // I/O or integrity errors (boot load, saves)
	staleSkipped atomic.Int64 // records for versions this boot cannot resolve
	warmLoaded   atomic.Int64 // cache entries installed warm at boot
}

// newPersister prepares the directory tree and opens the WAL for
// appending. cap bounds the record set (and with it the snapshot size);
// entries beyond it are counted in dropped, never silently lost track
// of.
func newPersister(dir string, cap int) (*persister, error) {
	if err := os.MkdirAll(filepath.Join(dir, specsDir), 0o755); err != nil {
		return nil, err
	}
	wal, err := os.OpenFile(filepath.Join(dir, walFile), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &persister{
		dir:  dir,
		cap:  cap,
		seen: make(map[string]struct{}),
		wal:  wal,
	}, nil
}

func recordKey(rec walRecord) string {
	return rec.Version + "\x00" + rec.Spec + "\x00" + rec.Term
}

// append books one freshly computed entry and writes it to the WAL.
// Called on the cold path only (the entry was just normalized), so the
// write syscall hides behind a full normalization.
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
	if len(p.recs) >= p.cap {
		p.dropped.Add(1)
		return
	}
	p.seen[key] = struct{}{}
	p.recs = append(p.recs, rec)
	line, err := json.Marshal(rec)
	if err != nil {
		// rec is our own struct of strings and an int; cannot fail.
		panic(fmt.Sprintf("serve: marshaling wal record: %v", err))
	}
	fmt.Fprintf(p.wal, "%s %s\n", lineDigest(line), line)
	p.walRecords.Add(1)
}

// seed installs records restored from disk without re-writing them;
// they will be carried forward by the next snapshot.
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
		if len(p.recs) >= p.cap {
			p.dropped.Add(1)
			continue
		}
		p.seen[key] = struct{}{}
		p.recs = append(p.recs, rec)
	}
}

// snapshot writes the full record set atomically (temp file + rename)
// and truncates the WAL, whose entries the snapshot now subsumes.
func (p *persister) snapshot() error {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	var b strings.Builder
	digest := sha256.New()
	for _, rec := range p.recs {
		line, err := json.Marshal(rec)
		if err != nil {
			panic(fmt.Sprintf("serve: marshaling snapshot record: %v", err))
		}
		b.Write(line)
		b.WriteByte('\n')
		digest.Write(line)
		digest.Write([]byte{'\n'})
	}
	content := snapshotHeader + "\n" + b.String() + snapshotFooter + hex.EncodeToString(digest.Sum(nil)) + "\n"
	tmp := filepath.Join(p.dir, snapshotFile+".tmp")
	if err := os.WriteFile(tmp, []byte(content), 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(p.dir, snapshotFile)); err != nil {
		return err
	}
	if err := p.wal.Truncate(0); err != nil {
		return err
	}
	p.snapshots.Add(1)
	return nil
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

// close snapshots one last time and releases the WAL handle.
func (p *persister) close() {
	if p == nil {
		return
	}
	_ = p.snapshot()
	p.mu.Lock()
	defer p.mu.Unlock()
	_ = p.wal.Close()
}

// lineDigest is the truncated SHA-256 prefix guarding one WAL line.
func lineDigest(payload []byte) string {
	sum := sha256.Sum256(payload)
	return hex.EncodeToString(sum[:8])
}

// loadNFStore reads the snapshot and WAL back, verifying every digest.
// Any corruption — a flipped byte in a record, a truncated snapshot, a
// forged digest — returns an error naming the offending file and line;
// the caller falls back to a cold start.
func loadNFStore(dir string) ([]walRecord, error) {
	var recs []walRecord
	snap := filepath.Join(dir, snapshotFile)
	if data, err := os.ReadFile(snap); err == nil {
		sr, err := parseSnapshot(data)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", snap, err)
		}
		recs = append(recs, sr...)
	} else if !os.IsNotExist(err) {
		return nil, err
	}
	wal := filepath.Join(dir, walFile)
	if data, err := os.ReadFile(wal); err == nil {
		wr, err := parseWAL(data)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", wal, err)
		}
		recs = append(recs, wr...)
	} else if !os.IsNotExist(err) {
		return nil, err
	}
	return recs, nil
}

func parseSnapshot(data []byte) ([]walRecord, error) {
	lines := strings.Split(string(data), "\n")
	if len(lines) < 2 || lines[0] != snapshotHeader {
		return nil, fmt.Errorf("snapshot header missing or unrecognized (want %q)", snapshotHeader)
	}
	if lines[len(lines)-1] == "" {
		lines = lines[:len(lines)-1]
	}
	last := lines[len(lines)-1]
	if !strings.HasPrefix(last, snapshotFooter) {
		return nil, fmt.Errorf("snapshot truncated: no %q footer", strings.TrimSpace(snapshotFooter))
	}
	payload := lines[1 : len(lines)-1]
	digest := sha256.New()
	var recs []walRecord
	for i, line := range payload {
		var rec walRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			return nil, fmt.Errorf("snapshot record %d: %w", i+1, err)
		}
		digest.Write([]byte(line))
		digest.Write([]byte{'\n'})
		recs = append(recs, rec)
	}
	want := strings.TrimPrefix(last, snapshotFooter)
	if got := hex.EncodeToString(digest.Sum(nil)); got != want {
		return nil, fmt.Errorf("snapshot digest mismatch: payload hashes to %s, footer says %s", got, want)
	}
	return recs, nil
}

func parseWAL(data []byte) ([]walRecord, error) {
	var recs []walRecord
	sc := bufio.NewScanner(strings.NewReader(string(data)))
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
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
