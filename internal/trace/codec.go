package trace

import (
	"errors"
	"slices"
	"strings"

	"repro/internal/jsontext"
)

// Span's one JSON codec: AppendJSON writes what encoding/json would write
// for the struct's tags, DecodeSpan reads it back, and MarshalJSON and
// UnmarshalJSON are built on the two, so a stream trailer, /debug/trace and
// the slow-query log all go through this file.

// maxSpanDepth bounds a tree AppendJSON writes: past it the tree is taken
// for a cycle, which encoding/json refuses too. It is the depth DecodeSpan
// reads.
const maxSpanDepth = 10000

var errSpanDepth = errors.New("trace: span tree deeper than 10000 levels (a cycle?)")

// AppendJSON appends the span tree's JSON to dst — byte for byte what
// encoding/json writes for it — and fails where encoding/json does, on a
// duration that is NaN or infinite. A nil span is null.
func (s *Span) AppendJSON(dst []byte) ([]byte, error) { return s.appendJSON(dst, 0) }

func (s *Span) appendJSON(dst []byte, depth int) ([]byte, error) {
	if s == nil {
		return append(dst, "null"...), nil
	}
	if depth == maxSpanDepth {
		return dst, errSpanDepth
	}
	dst = append(dst, `{"name":`...)
	dst = jsontext.AppendString(dst, s.Name)
	dst = append(dst, `,"duration_ms":`...)
	dst, err := jsontext.AppendFloat(dst, s.DurationMillis)
	if err != nil {
		return dst, err
	}
	if len(s.Attrs) > 0 {
		// In key order, as encoding/json writes a map. The keys sort on the
		// stack up to 16 of them, which is more than a span carries.
		var onStack [16]string
		keys := onStack[:0]
		for k := range s.Attrs {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		dst = append(dst, `,"attrs":{`...)
		for i, k := range keys {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = jsontext.AppendString(dst, k)
			dst = append(dst, ':')
			dst = jsontext.AppendString(dst, s.Attrs[k])
		}
		dst = append(dst, '}')
	}
	if len(s.Children) > 0 {
		dst = append(dst, `,"children":[`...)
		for i, c := range s.Children {
			if i > 0 {
				dst = append(dst, ',')
			}
			if dst, err = c.appendJSON(dst, depth+1); err != nil {
				return dst, err
			}
		}
		dst = append(dst, ']')
	}
	return append(dst, '}'), nil
}

// MarshalJSON implements json.Marshaler with AppendJSON.
func (s *Span) MarshalJSON() ([]byte, error) { return s.AppendJSON(nil) }

// UnmarshalJSON implements json.Unmarshaler with DecodeSpan; a null leaves
// s as it is.
func (s *Span) UnmarshalJSON(data []byte) error {
	d := jsontext.NewDecoder(string(data))
	if sp := DecodeSpan(&d); sp != nil {
		*s = *sp
	}
	return d.End()
}

var spanFields = []string{"name", "duration_ms", "attrs", "children"}

var errDuplicateChildren = errors.New("trace: span has two children lists")

// DecodeSpan reads the span tree at d's position — nil for a null — as
// encoding/json would decode it into a *Span, refusing only a member list
// that names "children" twice, which encoding/json would merge. Names and
// attributes are substrings of d's text unless escaped; the spans sit in
// one slab and the child pointers in another, so a tree costs those two
// allocations and each span with attributes its map.
func DecodeSpan(d *jsontext.Decoder) *Span {
	// Every span the encoder writes names itself once: the count of
	// "name" in what is left is at least the spans to come (it can only
	// fall short on escaped or case-folded keys, and then the slabs grow).
	n := strings.Count(d.Rest(), `"name"`)
	sd := spanDecoder{spans: make([]Span, 0, n), kids: make([]*Span, 0, n)}
	return sd.span(d)
}

// spanDecoder carves one tree's spans and child lists out of its slabs. A
// slab that outgrows its estimate moves on to a new array; what was carved
// from the old one stays where it is, and nothing refers to the copies. The
// decoder goes alongside, not inside: held here it would escape with the
// slabs.
type spanDecoder struct {
	spans []Span
	kids  []*Span
}

func (sd *spanDecoder) span(d *jsontext.Decoder) *Span {
	if !d.Object() {
		return nil
	}
	sd.spans = append(sd.spans, Span{})
	s := &sd.spans[len(sd.spans)-1]
	for d.More('}') {
		switch jsontext.Field(d.Key(), spanFields) {
		case "name":
			d.String(&s.Name)
		case "duration_ms":
			d.Float64(&s.DurationMillis)
		case "attrs":
			decodeAttrs(d, s)
		case "children":
			sd.children(d, s)
		default:
			d.Skip()
		}
	}
	return s
}

// decodeAttrs reads an attribute object into s.Attrs, adding to what a
// previous "attrs" member put there, as encoding/json does.
func decodeAttrs(d *jsontext.Decoder, s *Span) {
	if d.Null() {
		s.Attrs = nil
		return
	}
	if !d.Object() {
		return
	}
	if s.Attrs == nil {
		s.Attrs = make(map[string]string)
	}
	for d.More('}') {
		k := d.Key()
		var v string // a null value is "", as encoding/json stores it
		d.String(&v)
		s.Attrs[k] = v
	}
}

func (sd *spanDecoder) children(d *jsontext.Decoder, s *Span) {
	if d.Null() {
		s.Children = nil
		return
	}
	if s.Children != nil {
		d.Fail(errDuplicateChildren)
		return
	}
	if !d.Array() {
		return
	}
	// The children's own subtrees land in the slab while this list is
	// read, so the list gathers here and goes into the slab whole.
	var local [8]*Span
	list := local[:0]
	for d.More(']') {
		list = append(list, sd.span(d))
	}
	if len(list) == 0 {
		s.Children = []*Span{}
		return
	}
	at := len(sd.kids)
	sd.kids = append(sd.kids, list...)
	s.Children = sd.kids[at:len(sd.kids):len(sd.kids)]
}
