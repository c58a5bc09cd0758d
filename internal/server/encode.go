package server

import (
	"math"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"
)

// This file is the resolve path's streaming JSON encoder. CRH results are
// immutable once computed (the determinism contract in docs/PARALLEL.md),
// so the server encodes each ResolveResponse exactly once — straight into
// a flat []byte with strconv appends, no reflection, no intermediate maps
// — and the snapshot's results table keeps only those bytes. Cache hits
// and coalesced followers then serve the precomputed body; the only
// per-request work is stamping the tiny cached/coalesced envelope prefix
// in front of it.
//
// The output is byte-for-byte identical to what encoding/json (with
// SetEscapeHTML(false), the server's writeJSON setting) produces for the
// same value: same field order, same ES6-style float formatting, same
// string escaping. encode_test.go pins this with a golden suite and a
// fuzz differential against the stdlib encoder.

// Envelope prefixes: the serving-metadata flags stamped per request in
// front of the shared body bytes. They are exactly the opening
// encoding/json produces for resolveEnvelope, so prefix + body + '\n'
// is byte-identical to the old full json.Encoder encode.
const (
	envPrefixPlain     = `{"cached":false,"coalesced":false,`
	envPrefixCached    = `{"cached":true,"coalesced":false,`
	envPrefixCoalesced = `{"cached":false,"coalesced":true,`
)

// encodeBufPool recycles encode scratch buffers. Buffers grow to the
// largest response they have carried and are reused as-is, so the steady
// state appends without reallocating.
var encodeBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// encodeResolveBody encodes resp's body — everything after the
// envelope's opening brace, `"dataset":...}` — into a fresh exact-size
// slice suitable for long-term caching. The scratch buffer is pooled;
// the returned copy is the single allocation retained per computation
// (pinned by TestEncodeAllocs). Deliberately not a //crh:hotpath
// root: it runs once per computation, not per request, and the retained
// copy is the cached body itself.
func encodeResolveBody(resp *ResolveResponse) []byte {
	bp := encodeBufPool.Get().(*[]byte)
	b := appendResolveFields((*bp)[:0], resp)
	body := make([]byte, len(b))
	copy(body, b)
	*bp = b
	encodeBufPool.Put(bp)
	return body
}

// writeResolveEnvelope writes one resolve response: the per-request
// envelope prefix (one of the envPrefix constants), the shared
// precomputed body bytes, and the Encoder-compatible trailing newline.
// The total length is known up front, so Content-Length is declared and
// net/http sends the body identity-encoded — no chunked framing around
// each write, which matters when the body is tens of kilobytes. The
// tiny prefix and newline writes ride net/http's connection buffer; the
// body write passes straight through to the socket. Write errors are
// ignored for the same reason writeJSON ignores them: the status line
// is already out.
//
//crh:hotpath
func writeResolveEnvelope(w http.ResponseWriter, prefix string, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(prefix)+len(body)+1))
	w.WriteHeader(http.StatusOK)
	_, _ = stringWriter(w, prefix)
	_, _ = w.Write(body)
	_, _ = w.Write(newline)
}

// newline is the Encoder-compatible body terminator, shared so the hot
// path never allocates it.
var newline = []byte{'\n'}

// stringWriter writes s without a []byte conversion when w supports it
// (net/http's response writer does).
func stringWriter(w http.ResponseWriter, s string) (int, error) {
	if sw, ok := w.(interface{ WriteString(string) (int, error) }); ok {
		return sw.WriteString(s)
	}
	//lint:ignore hotpath fallback for writers without WriteString (test recorders); net/http never takes this branch
	return w.Write([]byte(s))
}

// appendResolveResponse appends the full encoding/json rendering of resp
// (no trailing newline) — the stand-alone form the golden and fuzz tests
// compare against the stdlib encoder.
func appendResolveResponse(b []byte, resp *ResolveResponse) []byte {
	b = append(b, '{')
	return appendResolveFields(b, resp)
}

// appendResolveFields appends resp's fields — `"dataset":` through the
// closing brace — in ResolveResponse declaration order, mirroring
// encoding/json's struct walk (omitempty included).
//
//crh:hotpath
//lint:ignore hotpath every append lands in a pooled scratch buffer that keeps its capacity across requests; steady state reallocates nothing
func appendResolveFields(b []byte, resp *ResolveResponse) []byte {
	b = append(b, `"dataset":`...)
	b = appendJSONString(b, resp.Dataset)
	b = append(b, `,"version":`...)
	b = strconv.AppendInt(b, resp.Version, 10)
	b = append(b, `,"method":`...)
	b = appendJSONString(b, resp.Method)
	b = append(b, `,"truths":`...)
	if resp.Truths == nil {
		b = append(b, `null`...)
	} else {
		b = append(b, '[')
		for i := range resp.Truths {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendTruth(b, &resp.Truths[i])
		}
		b = append(b, ']')
	}
	if len(resp.Weights) > 0 {
		b = append(b, `,"weights":{`...)
		for i := range resp.Weights {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendJSONString(b, resp.Weights[i].Name)
			b = append(b, ':')
			b = appendJSONFloat(b, resp.Weights[i].Weight)
		}
		b = append(b, '}')
	}
	if resp.Converged != nil {
		if *resp.Converged {
			b = append(b, `,"converged":true`...)
		} else {
			b = append(b, `,"converged":false`...)
		}
	}
	if resp.Iterations != 0 {
		b = append(b, `,"iterations":`...)
		b = strconv.AppendInt(b, int64(resp.Iterations), 10)
	}
	return append(b, '}')
}

// appendTruth appends one TruthJSON object.
//
//lint:ignore hotpath appends into the pooled scratch buffer (see appendResolveFields)
func appendTruth(b []byte, t *TruthJSON) []byte {
	b = append(b, `{"object":`...)
	b = appendJSONString(b, t.Object)
	b = append(b, `,"property":`...)
	b = appendJSONString(b, t.Property)
	b = append(b, `,"value":`...)
	if t.Value.IsCat {
		b = appendJSONString(b, t.Value.Cat)
	} else {
		b = appendJSONFloat(b, t.Value.F)
	}
	if t.Confidence != nil {
		b = append(b, `,"confidence":`...)
		b = appendJSONFloat(b, *t.Confidence)
	}
	return append(b, '}')
}

// appendJSONFloat appends f the way encoding/json renders a float64:
// ES6 number-to-string conversion — 'f' format at shortest precision,
// switching to 'e' outside [1e-6, 1e21) with a trimmed one-digit
// exponent. The caller guarantees f is finite, as the resolve pipeline
// does for every value it serves (ingest rejects non-finite
// observations); encoding/json errors on non-finite values instead.
func appendJSONFloat(b []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// Trim a two-digit negative exponent's leading zero: e-09 -> e-9.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a quoted JSON string with encoding/json's
// SetEscapeHTML(false) escaping: backslash, double quote, and control
// bytes below 0x20 are escaped (\n, \r, \t short forms; \u00XX
// otherwise), invalid UTF-8 bytes are escaped as \ufffd, and U+2028/U+2029 are
// always escaped; <, >, and & pass through.
//
//lint:ignore hotpath appends into the pooled scratch buffer (see appendResolveFields)
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
			continue
		}
		// U+2028 and U+2029 are valid JSON but break JSONP consumers;
		// encoding/json escapes them unconditionally, so we do too.
		if r == ' ' || r == ' ' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
