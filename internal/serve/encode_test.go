package serve

import (
	"bytes"
	"encoding/json"
	"testing"

	"algspec/internal/term"
)

// encoderBytes is what writeJSON writes for v.
func encoderBytes(t testing.TB, v any) []byte {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// checkEncode compares the direct writer with json.Encoder on resp,
// once with its strings and once with its input and normal form handed
// over as terms that print them.
func checkEncode(t testing.TB, resp *NormalizeResponse) {
	t.Helper()
	want := encoderBytes(t, resp)
	var got bytes.Buffer
	encodeNormalizeResponse(&got, resp, nil, nil)
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("direct writer differs from json.Encoder for %#v:\ngot  %q\nwant %q", resp, got.Bytes(), want)
	}
	// A nullary operation prints exactly its name.
	input, nf := term.NewOp(resp.Input, "S"), term.NewOp(resp.NormalForm, "S")
	bare := *resp
	bare.Input, bare.NormalForm = "", ""
	got.Reset()
	encodeNormalizeResponse(&got, &bare, input, nf)
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("direct writer with terms differs from json.Encoder for %#v:\ngot  %q\nwant %q", resp, got.Bytes(), want)
	}
}

// awkward holds strings that encoding/json escapes: quotes,
// backslashes, control bytes, HTML-sensitive bytes, the two JavaScript
// line separators and invalid UTF-8, beside ones it copies.
var awkward = []string{
	"", "front(add(new, 'a))", `say "hi"`, `back\slash`, "tab\tnew\nline\rcr\bbs\fff\x00\x1f\x7f",
	"<script>&amp;</script>", "line\u2028para\u2029", "bad\xffutf8\xc3", "'日本 é ü", "\ufffd", "cut\xe2\x80",
}

func TestDirectWriterMatchesEncoder(t *testing.T) {
	trace := []TraceStep{{Rule: "q1", Before: "front(add(new, 'a))", After: "'a"}, {Rule: "r2", Before: "x", After: "y"}}
	for _, version := range []string{"", "sha256:0123abcd"} {
		for _, tr := range [][]TraceStep{nil, {}, trace[:1], trace} {
			for _, cached := range []bool{false, true} {
				for _, steps := range []int{0, 7, 1 << 40, -3} {
					checkEncode(t, &NormalizeResponse{Spec: "Queue", Version: version, Input: "front(add(new, 'a))",
						NormalForm: "'a", Steps: steps, Cached: cached, Trace: tr})
				}
			}
		}
	}
	for _, s := range awkward {
		checkEncode(t, &NormalizeResponse{Spec: s, Version: s, Input: s, NormalForm: s,
			Trace: []TraceStep{{Rule: s, Before: s, After: s}}})
	}
	// A term's own printing, conditionals and errors included.
	tm := term.NewIf(term.True(), term.NewOp("add", "Queue", term.NewOp("new", "Queue"), term.NewAtom("日本", "Item")), term.NewErr("Queue"))
	var got bytes.Buffer
	encodeNormalizeResponse(&got, &NormalizeResponse{Spec: "Queue"}, tm, tm)
	if want := encoderBytes(t, &NormalizeResponse{Spec: "Queue", Input: tm.String(), NormalForm: tm.String()}); !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("direct writer of %v:\ngot  %q\nwant %q", tm, got.Bytes(), want)
	}
}

// FuzzDirectWriter is the writer's byte-identity fuzz target: any
// response, any strings, the same bytes as json.Encoder.
func FuzzDirectWriter(f *testing.F) {
	for _, s := range awkward {
		f.Add(s, s, 3, true, uint8(1))
	}
	f.Add("Queue", "front(new)", 1, false, uint8(0))
	f.Fuzz(func(t *testing.T, a, b string, steps int, cached bool, shape uint8) {
		resp := &NormalizeResponse{Spec: a, Input: b, NormalForm: a + b, Steps: steps, Cached: cached}
		if shape&1 != 0 {
			resp.Version = b
		}
		for i := 0; i < int(shape>>1&3); i++ {
			resp.Trace = append(resp.Trace, TraceStep{Rule: a, Before: b, After: a})
		}
		checkEncode(t, resp)
	})
}
