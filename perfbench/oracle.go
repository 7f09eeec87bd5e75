package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// goldenEntry is one pinned (spec, term, normal form) triple.
type goldenEntry struct {
	Spec, Term, NF string
}

// loadGolden reads the committed golden corpus (specs/golden/*.golden):
// a header line naming the spec, then "term" / "  => nf" pairs. These
// files are the hot workload's oracle, so nothing the engine computes in
// this process judges its own answers.
func loadGolden(dir string, specs map[string]bool) ([]goldenEntry, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.golden"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no golden files under %s", dir)
	}
	sort.Strings(files)
	var out []goldenEntry
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		lines := strings.Split(string(data), "\n")
		const header = "-- Golden normal forms for "
		if len(lines) == 0 || !strings.HasPrefix(lines[0], header) {
			return nil, fmt.Errorf("%s: missing %q header", f, header)
		}
		spec := strings.TrimSuffix(strings.TrimPrefix(lines[0], header), ".")
		if !specs[spec] {
			continue // a spec outside the embedded library
		}
		for i := 1; i < len(lines); i++ {
			nf, ok := strings.CutPrefix(lines[i], "  => ")
			if !ok {
				continue
			}
			if i == 1 || lines[i-1] == "" {
				return nil, fmt.Errorf("%s:%d: normal form without a term", f, i+1)
			}
			out = append(out, goldenEntry{Spec: spec, Term: lines[i-1], NF: nf})
		}
	}
	return out, nil
}

// loadCertificatePins reads the pinned one-line confluence verdicts
// (internal/completion/testdata/certificates.txt): spec name -> the
// exact line Certificate.String must render.
func loadCertificatePins(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	pins := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		name, _, ok := strings.Cut(line, ": ")
		if !ok {
			continue
		}
		pins[name] = line
	}
	return pins, sc.Err()
}
