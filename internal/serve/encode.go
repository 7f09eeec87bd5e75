package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
	"unicode/utf8"

	"algspec/internal/term"
)

// writeNormalizeResponse answers 200 with resp, in exactly the bytes
// writeJSON would write, without marshaling through reflection and then
// re-scanning every byte to indent it. A non-nil input or nf stands in
// for resp.Input or resp.NormalForm and is printed straight into the
// response, so the handler builds no string for either.
func writeNormalizeResponse(w http.ResponseWriter, resp *NormalizeResponse, input, nf *term.Term) {
	buf := encBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	encodeNormalizeResponse(buf, resp, input, nf)
	send(w, http.StatusOK, buf)
}

// encodeNormalizeResponse writes resp as json.Encoder with
// SetIndent("", "  ") does: fields in declaration order, omitempty
// honoured, two-space indentation and a final newline. input and nf,
// when not nil, are written in place of resp.Input and resp.NormalForm.
func encodeNormalizeResponse(b *bytes.Buffer, r *NormalizeResponse, input, nf *term.Term) {
	b.WriteString("{\n  \"spec\": ")
	encodeString(b, r.Spec)
	if r.Version != "" {
		b.WriteString(",\n  \"version\": ")
		encodeString(b, r.Version)
	}
	b.WriteString(",\n  \"input\": ")
	encodeTermOr(b, input, r.Input)
	b.WriteString(",\n  \"normal_form\": ")
	encodeTermOr(b, nf, r.NormalForm)
	b.WriteString(",\n  \"steps\": ")
	b.Write(strconv.AppendInt(b.AvailableBuffer(), int64(r.Steps), 10))
	b.WriteString(",\n  \"cached\": ")
	b.WriteString(strconv.FormatBool(r.Cached))
	if len(r.Trace) > 0 {
		b.WriteString(",\n  \"trace\": [")
		for i := range r.Trace {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString("\n    {\n      \"rule\": ")
			encodeString(b, r.Trace[i].Rule)
			b.WriteString(",\n      \"before\": ")
			encodeString(b, r.Trace[i].Before)
			b.WriteString(",\n      \"after\": ")
			encodeString(b, r.Trace[i].After)
			b.WriteString("\n    }")
		}
		b.WriteString("\n  ]")
	}
	b.WriteString("\n}\n")
}

// encodeTermOr writes t's text as a JSON string, or s when t is nil.
// The text is printed into b directly and kept when it needs no
// escaping, which a term read from the surface syntax never does.
func encodeTermOr(b *bytes.Buffer, t *term.Term, s string) {
	if t == nil {
		encodeString(b, s)
		return
	}
	start := b.Len()
	b.WriteByte('"')
	b.Write(t.AppendText(b.AvailableBuffer()))
	if !plainJSON(b.Bytes()[start+1:]) {
		b.Truncate(start)
		encodeEscaped(b, t.String())
		return
	}
	b.WriteByte('"')
}

// encodeString writes s as a JSON string: copied as it is when it needs
// no escaping, through encoding/json otherwise, so the escapes are
// always its own.
func encodeString(b *bytes.Buffer, s string) {
	if !plainJSON(s) {
		encodeEscaped(b, s)
		return
	}
	b.WriteByte('"')
	b.WriteString(s)
	b.WriteByte('"')
}

func encodeEscaped(b *bytes.Buffer, s string) {
	q, err := json.Marshal(s)
	if err != nil {
		// Marshaling a string cannot fail.
		panic("serve: marshaling a string: " + err.Error())
	}
	b.Write(q)
}

// jsonPlain marks the single-byte runes encoding/json copies into a
// string unescaped: not a control byte, a quote, a backslash, or one of
// the HTML-sensitive <, > and &.
var jsonPlain = func() (t [utf8.RuneSelf]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

// plainJSON reports whether encoding/json would write s between quotes
// unchanged: every byte is plain, and the text is valid UTF-8 without
// U+2028 or U+2029.
func plainJSON[T string | []byte](s T) bool {
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if !jsonPlain[c] {
				return false
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(string(s[i:min(i+utf8.UTFMax, len(s))]))
		if r == utf8.RuneError && size == 1 || r == '\u2028' || r == '\u2029' {
			return false
		}
		i += size
	}
	return true
}
