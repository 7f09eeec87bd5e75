package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"algspec/internal/core"
	"algspec/internal/lang"
	"algspec/internal/sig"
	"algspec/internal/speclib"
)

var update = flag.Bool("update", false, "rewrite testdata/rejections.golden")

const rejectionsGolden = "testdata/rejections.golden"

// rejection renders one golden line: the key, the line and column a
// 400 body attaches to the error (the first syntax error's, or 0:0),
// and the error text, quoted.
func rejection(key string, err error) string {
	line, col := 0, 0
	var el lang.ErrorList
	var one *lang.Error
	switch {
	case errors.As(err, &el) && len(el) > 0:
		line, col = el[0].Line, el[0].Col
	case errors.As(err, &one):
		line, col = one.Line, one.Col
	}
	return fmt.Sprintf("%s %d:%d %s", key, line, col, strconv.Quote(err.Error()))
}

// rejectionKey names one input: its digest, the spec it is read
// against (or "load:" and the source it was loaded after) and the
// expected root sort ("-" to infer).
func rejectionKey(src, spec string, so sig.Sort) string {
	sum := sha256.Sum256([]byte(src))
	if so == "" {
		so = "-"
	}
	return hex.EncodeToString(sum[:8]) + " " + spec + " " + string(so)
}

// parseSpecSeeds are FuzzParseSpec's inline seeds; its corpus files
// are read from the lang package's testdata.
var parseSpecSeeds = []string{
	"spec Q\n  uses Bool\n\n  ops\n    new : -> Q\n    f   : Q -> Bool\n\n  vars\n    q : Q\n\n  axioms\n    [f1] f(new) = true\nend\n",
	"spec ???",
	"spec Q ops f : -> ",
	"axioms f(x) =",
	"spec Deep axioms " + strings.Repeat("f(", 64) + "x" + strings.Repeat(")", 64) + " = x end",
	"",
}

// forEachLoad calls load on every source the golden pins a loading
// outcome for, with the environment to load it into: FuzzParseSpec's
// seeds on top of Bool, and 20 seeded token-level mutations (delete,
// duplicate or swap a token) of each library source on top of the
// sources before it.
func forEachLoad(t *testing.T, load func(env *core.Env, after, src string)) {
	envs := []*core.Env{core.NewEnv()}
	for _, src := range speclib.Sources {
		env := envs[len(envs)-1].Extend()
		env.MustLoad(src)
		envs = append(envs, env)
	}
	seeds := append([]string(nil), parseSpecSeeds...)
	corpus, err := filepath.Glob("../lang/testdata/fuzz/FuzzParseSpec/*")
	if err != nil || len(corpus) == 0 {
		t.Fatalf("no FuzzParseSpec corpus: %v", err)
	}
	for _, p := range corpus {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(string(data), "\n")
		src, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "string("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		seeds = append(seeds, src)
	}
	for _, src := range seeds {
		load(envs[1], "Bool", src)
	}
	for k, base := range speclib.Sources {
		r := rand.New(rand.NewSource(int64(k + 1)))
		pieces := strings.Fields(base)
		for trial := 0; trial < 20; trial++ {
			m := append([]string(nil), pieces...)
			switch i := r.Intn(len(m)); r.Intn(3) {
			case 0:
				m = append(m[:i], m[i+1:]...)
			case 1:
				m = append(m[:i+1], m[i:]...)
			default:
				j := r.Intn(len(m))
				m[i], m[j] = m[j], m[i]
			}
			after := "-"
			if k > 0 {
				after = speclib.Names[k-1]
			}
			load(envs[k], after, strings.Join(m, " "))
		}
	}
}

// TestRejectionsGolden pins the text and position of every rejection
// the reader's tests provoke, and of every loading error of the parser
// seeds and the mutated library: testdata/rejections.golden holds one
// line per rejected input, and every input without a line must be
// accepted. Run with -update to rewrite it.
func TestRejectionsGolden(t *testing.T) {
	got := map[string]string{}
	env := readEnv()
	forEachRead(t, env, func(name, src string, expected sig.Sort) {
		if _, err := env.ParseTermAs(name, src, expected); err != nil {
			key := rejectionKey(src, name, expected)
			got[key] = rejection(key, err)
		}
	})
	forEachLoad(t, func(base *core.Env, after, src string) {
		if _, err := base.Extend().Load(src); err != nil {
			key := rejectionKey(src, "load:"+after, "")
			got[key] = rejection(key, err)
		}
	})
	lines := make([]string, 0, len(got))
	for _, l := range got {
		lines = append(lines, l)
	}
	sort.Strings(lines)
	if *update {
		if err := os.MkdirAll(filepath.Dir(rejectionsGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(rejectionsGolden, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(rejectionsGolden)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, l := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		f := strings.SplitN(l, " ", 4)
		want[strings.Join(f[:3], " ")] = l
	}
	bad := 0
	for key, w := range want {
		if g := got[key]; g != w {
			t.Errorf("rejection changed:\n  want %s\n  got  %s", w, g)
			bad++
		}
	}
	for key, g := range got {
		if _, ok := want[key]; !ok {
			t.Errorf("new rejection: %s", g)
			bad++
		}
		if bad > 20 {
			t.Fatal("too many differences")
		}
	}
	t.Logf("%d rejections pinned", len(want))
}
