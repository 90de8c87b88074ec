// Package jsontext is the hand-written JSON of the result stream's metadata
// frames — a stream's header and trailer and the span tree the trailer
// carries — so that the per-statement cost of those frames is an append into
// a buffer the stream already holds, not a walk by reflection.
//
// The encoders write exactly the bytes encoding/json writes for the same
// value (HTML escaping, the U+FFFD escape of invalid UTF-8, ES6 float
// formatting), so a hand-encoded frame cannot be told from a reflected one.
// The Decoder reads one JSON text held in a string: strings come back as
// substrings of it unless they carry escapes, and every input it accepts
// encoding/json accepts too, with the same value. It matches member names
// as encoding/json matches struct fields (Field) and skips unknown members.
package jsontext

import (
	"errors"
	"math"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
)

const hex = "0123456789abcdef"

// htmlSafe reports whether encoding/json, escaping HTML, writes the ASCII
// byte b into a string as it is.
func htmlSafe(b byte) bool {
	return b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
}

// AppendString appends s as a JSON string, escaped as encoding/json escapes
// it with HTML escaping on: control bytes, '"', '\\', '<', '>', '&',
// U+2028 and U+2029 become escapes, and each byte of invalid UTF-8 becomes
// the escape of U+FFFD.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if htmlSafe(b) {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
			continue
		}
		if c == 0x2028 || c == 0x2029 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// AppendFloat appends f as encoding/json writes a float64: the shortest
// decimal that round-trips, in exponent form below 1e-6 and from 1e21 up,
// with the exponent unpadded. NaN and the infinities are an error, as they
// are to encoding/json.
func AppendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, errors.New("jsontext: unsupported value: " + strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-07 → e-7
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// maxDepth is the deepest nesting the Decoder reads, encoding/json's own.
const maxDepth = 10000

// SyntaxError is input the Decoder refuses, with the offset it stopped at.
type SyntaxError struct {
	Msg    string
	Offset int
}

func (e *SyntaxError) Error() string {
	return "jsontext: " + e.Msg + " at offset " + strconv.Itoa(e.Offset)
}

// Decoder reads one JSON text from a string, value by value, in the order
// the text holds them: Object/Array open a container, More steps through
// its members or elements, Key reads a member's name, and the typed readers
// (String, Bool, Int, Int64, Uint64, Float64) store a value, leaving their
// target as it is at a null — encoding/json's rule for a null into a
// non-pointer field. The first error sticks: every read after it does
// nothing, and End reports it.
type Decoder struct {
	s     string
	i     int
	depth int
	first bool // a container was just opened: no ',' before its first entry
	err   error
}

// NewDecoder returns a decoder over the JSON text s.
func NewDecoder(s string) Decoder { return Decoder{s: s} }

// Fail records err as the decoder's error unless one is recorded already:
// how a caller refuses a value that is well-formed JSON.
func (d *Decoder) Fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *Decoder) syntax(msg string) { d.Fail(&SyntaxError{Msg: msg, Offset: d.i}) }

// Rest is the text not read yet.
func (d *Decoder) Rest() string { return d.s[d.i:] }

// End returns the first error, or an error if anything but whitespace
// follows the value read.
func (d *Decoder) End() error {
	if d.err == nil && d.peek() != 0 {
		d.syntax("invalid character after top-level value")
	}
	return d.err
}

// peek skips whitespace and returns the next byte, 0 at the end.
func (d *Decoder) peek() byte {
	for ; d.i < len(d.s); d.i++ {
		switch c := d.s[d.i]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

func (d *Decoder) literal(lit string) {
	if !strings.HasPrefix(d.s[d.i:], lit) {
		d.syntax("invalid literal")
		return
	}
	d.i += len(lit)
}

// Null consumes a null and reports whether there was one.
func (d *Decoder) Null() bool {
	if d.err != nil || d.peek() != 'n' {
		return false
	}
	d.literal("null")
	return d.err == nil
}

// Object opens an object: true at its '{', false at a null (consumed) or on
// an error.
func (d *Decoder) Object() bool { return d.open('{') }

// Array opens an array: true at its '[', false at a null (consumed) or on
// an error.
func (d *Decoder) Array() bool { return d.open('[') }

func (d *Decoder) open(c byte) bool {
	if d.Null() || d.err != nil {
		return false
	}
	if d.peek() != c {
		if c == '{' {
			d.syntax("expected object")
		} else {
			d.syntax("expected array")
		}
		return false
	}
	if d.depth++; d.depth > maxDepth {
		d.syntax("exceeded max depth")
		return false
	}
	d.i++
	d.first = true
	return true
}

// More reports whether the container just opened or being read has
// another entry, consuming the ',' before it; at the container's close —
// '}' for an object, ']' for an array — it consumes that and reports false.
func (d *Decoder) More(close byte) bool {
	if d.err != nil {
		return false
	}
	c := d.peek()
	if c == close {
		d.i++
		d.depth--
		d.first = false
		return false
	}
	if !d.first {
		if c != ',' {
			d.syntax("expected ',' or '" + string(rune(close)) + "'")
			return false
		}
		d.i++
	}
	d.first = false
	return true
}

// Key reads an object member's name and the ':' after it.
func (d *Decoder) Key() string {
	k := d.str()
	if d.err == nil {
		if d.peek() != ':' {
			d.syntax("expected ':'")
			return ""
		}
		d.i++
	}
	return k
}

// Field returns the name in names that key selects the way encoding/json
// selects a struct field: an exact match, else the first case-insensitive
// one; key itself when none matches.
func Field(key string, names []string) string {
	for _, n := range names {
		if key == n {
			return n
		}
	}
	for _, n := range names {
		if strings.EqualFold(key, n) {
			return n
		}
	}
	return key
}

// String reads a string into p.
func (d *Decoder) String(p *string) {
	if !d.Null() {
		if s := d.str(); d.err == nil {
			*p = s
		}
	}
}

// Bool reads true or false into p.
func (d *Decoder) Bool(p *bool) {
	if d.Null() || d.err != nil {
		return
	}
	switch d.peek() {
	case 't':
		if d.literal("true"); d.err == nil {
			*p = true
		}
	case 'f':
		if d.literal("false"); d.err == nil {
			*p = false
		}
	default:
		d.syntax("expected boolean")
	}
}

// Int64 reads an integer into p; a fraction, an exponent or an overflow is
// an error, as it is to encoding/json.
func (d *Decoder) Int64(p *int64) {
	if d.Null() {
		return
	}
	if s := d.number(); d.err == nil {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			d.Fail(err)
			return
		}
		*p = n
	}
}

// Int reads an integer into p.
func (d *Decoder) Int(p *int) {
	n := int64(*p)
	if d.Int64(&n); d.err == nil {
		if int64(int(n)) != n {
			d.syntax("integer overflows int")
			return
		}
		*p = int(n)
	}
}

// Uint64 reads an unsigned integer into p.
func (d *Decoder) Uint64(p *uint64) {
	if d.Null() {
		return
	}
	if s := d.number(); d.err == nil {
		n, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			d.Fail(err)
			return
		}
		*p = n
	}
}

// Float64 reads a number into p; one past float64's range is an error.
func (d *Decoder) Float64(p *float64) {
	if d.Null() {
		return
	}
	if s := d.number(); d.err == nil {
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			d.Fail(err)
			return
		}
		*p = f
	}
}

// Skip reads past one value of any type, checking its syntax.
func (d *Decoder) Skip() {
	if d.err != nil {
		return
	}
	switch d.peek() {
	case '{':
		if d.Object() {
			for d.More('}') {
				d.scanString()
				if d.err == nil && d.peek() != ':' {
					d.syntax("expected ':'")
				}
				d.i++
				d.Skip()
			}
		}
	case '[':
		if d.Array() {
			for d.More(']') {
				d.Skip()
			}
		}
	case '"':
		d.scanString()
	case 't':
		d.literal("true")
	case 'f':
		d.literal("false")
	case 'n':
		d.literal("null")
	default:
		d.number()
	}
}

// number reads a number and returns its text, refusing what JSON's grammar
// does: a '+', a leading zero, a bare '.', hex.
func (d *Decoder) number() string {
	if d.err != nil {
		return ""
	}
	d.peek()
	s, start := d.s, d.i
	i := start
	if i < len(s) && s[i] == '-' {
		i++
	}
	switch {
	case i < len(s) && s[i] == '0':
		i++
	case i < len(s) && '1' <= s[i] && s[i] <= '9':
		i = digits(s, i)
	default:
		d.i = i
		d.syntax("expected value")
		return ""
	}
	if i < len(s) && s[i] == '.' {
		if i++; i == len(s) || !isDigit(s[i]) {
			d.i = i
			d.syntax("expected digit after '.'")
			return ""
		}
		i = digits(s, i)
	}
	if i < len(s) && (s[i] == 'e' || s[i] == 'E') {
		if i++; i < len(s) && (s[i] == '+' || s[i] == '-') {
			i++
		}
		if i == len(s) || !isDigit(s[i]) {
			d.i = i
			d.syntax("expected digit in exponent")
			return ""
		}
		i = digits(s, i)
	}
	d.i = i
	return s[start:i]
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func digits(s string, i int) int {
	for i < len(s) && isDigit(s[i]) {
		i++
	}
	return i
}

// str reads a string: a substring of the text when it holds no escape and
// no invalid UTF-8, else its unescaped copy.
func (d *Decoder) str() string {
	raw, clean := d.scanString()
	if d.err != nil || clean {
		return raw
	}
	return unescape(raw)
}

// scanString reads past a string, checking its syntax, and returns what is
// between its quotes; clean reports that no escape and no invalid UTF-8 is
// among it, so it is the string's value as it stands.
func (d *Decoder) scanString() (raw string, clean bool) {
	if d.err != nil {
		return "", false
	}
	if d.peek() != '"' {
		d.syntax("expected string")
		return "", false
	}
	s := d.s
	start := d.i + 1
	clean = true
	for i := start; i < len(s); {
		switch c := s[i]; {
		case c == '"':
			d.i = i + 1
			return s[start:i], clean
		case c == '\\':
			clean = false
			if i+1 < len(s) {
				switch s[i+1] {
				case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
					i += 2
					continue
				case 'u':
					if hex4(s[i+2:]) >= 0 {
						i += 6
						continue
					}
				}
			}
			d.i = i
			d.syntax("invalid escape in string")
			return "", false
		case c < ' ':
			d.i = i
			d.syntax("control character in string")
			return "", false
		case c < utf8.RuneSelf:
			i++
		default:
			r, size := utf8.DecodeRuneInString(s[i:])
			if r == utf8.RuneError && size == 1 {
				clean = false
			}
			i += size
		}
	}
	d.i = len(s)
	d.syntax("unterminated string")
	return "", false
}

// hex4 decodes the four hex digits s starts with, -1 if it does not.
func hex4(s string) rune {
	if len(s) < 4 {
		return -1
	}
	var r rune
	for _, c := range []byte(s[:4]) {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// unescape decodes a string scanString accepted, as encoding/json does: a
// surrogate pair of \u escapes is one rune, a lone surrogate is U+FFFD, and
// so is each byte of invalid UTF-8.
func unescape(raw string) string {
	var b strings.Builder
	b.Grow(len(raw))
	for i := 0; i < len(raw); {
		c := raw[i]
		switch {
		case c == '\\':
			switch e := raw[i+1]; e {
			case 'b':
				b.WriteByte('\b')
			case 'f':
				b.WriteByte('\f')
			case 'n':
				b.WriteByte('\n')
			case 'r':
				b.WriteByte('\r')
			case 't':
				b.WriteByte('\t')
			case 'u':
				r := hex4(raw[i+2:])
				i += 6
				if utf16.IsSurrogate(r) {
					r1 := rune(-1)
					if i+1 < len(raw) && raw[i] == '\\' && raw[i+1] == 'u' {
						r1 = hex4(raw[i+2:])
					}
					if dec := utf16.DecodeRune(r, r1); dec != utf8.RuneError {
						b.WriteRune(dec)
						i += 6
						continue
					}
					r = utf8.RuneError
				}
				b.WriteRune(r)
				continue
			default: // '"', '\\', '/'
				b.WriteByte(e)
			}
			i += 2
		case c < utf8.RuneSelf:
			b.WriteByte(c)
			i++
		default:
			r, size := utf8.DecodeRuneInString(raw[i:])
			b.WriteRune(r)
			i += size
		}
	}
	return b.String()
}
