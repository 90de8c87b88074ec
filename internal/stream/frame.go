package stream

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/storage"
)

// The binary columnar wire format. A stream is a 4-byte magic followed by
// length-prefixed frames:
//
//	"WCF1"                                  stream magic
//	[type:1]['H'|'B'|'T'][len:4 LE][payload]
//
// Frame types:
//
//	'H' header  — JSON payload (the service's schema header, opaque here)
//	'B' batch   — binary columnar row batch (layout below)
//	'T' trailer — JSON payload (outcome/error trailer, opaque here)
//
// Batch payload, given the column count from the header:
//
//	uvarint nrows
//	per column:
//	  [colkind:1]  0=all-NULL 1=int 2=float 3=string 4=mixed
//	  [validity:1] 0|1; if 1: ceil(nrows/8) bitmap bytes, bit set = NULL
//	  packed values of the NULL-free slots:
//	    int    8-byte LE two's complement   (fixed width: near-memcpy)
//	    float  8-byte LE IEEE 754
//	    string uvarint length + bytes
//	  mixed: every row as the storage tuple codec's value encoding
//	         (1 kind byte + payload), NULLs included — the lossless
//	         fallback for kind-heterogeneous columns
//
// Header and trailer payloads stay JSON: they are tiny, carry the service
// layer's metadata taxonomy (including mid-stream errors), and keep this
// package free of service types. The rows — all the volume — are binary.
//
// Every decode path bounds-checks before it allocates or reads: a
// truncated frame, an oversized length, a bad column kind or a
// validity-bitmap overrun must surface ErrFrameCorrupt, never a panic —
// FuzzFrameDecode holds the codec to that.

// FrameMagic starts every binary stream.
const FrameMagic = "WCF1"

// Frame type bytes.
const (
	FrameHeader  = 'H'
	FrameBatch   = 'B'
	FrameTrailer = 'T'
)

// frameHeaderLen is a frame's type byte and 4-byte length.
const frameHeaderLen = 5

// MaxFramePayload bounds a frame's declared payload length: a corrupt or
// hostile 4-byte length cannot make the reader allocate gigabytes.
const MaxFramePayload = 64 << 20

// maxBatchRows and maxBatchCells bound a batch's declared row count and
// its rows × columns before any per-row allocation happens. The largest
// batch a writer emits is a result batch (BatchRows): at most 4096 rows and
// max(8192, 256·cols) cells. 64 Ki rows and 4 Mi cells leave room for a
// wider one while keeping the vectors a frame can ask for under the
// frame's own size limit.
const (
	maxBatchRows  = 1 << 16
	maxBatchCells = 1 << 22
)

// ErrFrameCorrupt reports a malformed binary frame stream.
var ErrFrameCorrupt = errors.New("stream: corrupt binary frame")

// FrameWriter emits one binary stream: magic, then frames. Every frame
// leaves in one Write — the magic, on the first, in the same one: it is
// built in buf, its header reserved in front of the payload and its length
// patched in once the payload is there, so a frame flushed on its own is
// one HTTP chunk, and nothing of it is allocated past buf's growth.
type FrameWriter struct {
	w     io.Writer
	buf   []byte
	batch Batch // WriteTuples' columns, refilled per frame
	wrote bool
	at    int // where in buf the frame BeginFrame started begins
}

// NewFrameWriter wraps w; nothing is written until the first frame.
func NewFrameWriter(w io.Writer) *FrameWriter { return &FrameWriter{w: w} }

// Reset readies fw for a new stream to w, keeping its buffer and batch as
// capacity (Batch.Clear). Under PoisonReused the buffer is overwritten: a
// frame read out of it after its stream ended shows as garbage.
func (fw *FrameWriter) Reset(w io.Writer) {
	fw.w, fw.wrote = w, false
	fw.batch.Clear()
	if poisonReused {
		poison(fw.buf, 0xdb)
	}
}

// Bytes is the memory fw retains: its frame buffer and WriteTuples' batch.
func (fw *FrameWriter) Bytes() int64 { return int64(cap(fw.buf)) + fw.batch.Bytes() }

// BeginFrame starts a frame of type typ in buf — the magic first if no
// frame has gone out yet — and returns buf for the payload to be appended
// to in place: a caller with an append encoder hands the grown buffer to
// SendFrame, and the payload is built nowhere else first.
func (fw *FrameWriter) BeginFrame(typ byte) []byte {
	fw.buf = fw.buf[:0]
	if !fw.wrote {
		fw.buf = append(fw.buf, FrameMagic...)
	}
	fw.at = len(fw.buf)
	return append(fw.buf, typ, 0, 0, 0, 0) // the length: SendFrame patches it in
}

// SendFrame patches the length of the frame BeginFrame started into it and
// writes the frame; buf is the buffer BeginFrame returned, the payload
// appended.
func (fw *FrameWriter) SendFrame(buf []byte) error {
	fw.buf = buf
	binary.LittleEndian.PutUint32(fw.buf[fw.at+1:], uint32(len(fw.buf)-fw.at-frameHeaderLen))
	fw.wrote = true
	_, err := fw.w.Write(fw.buf)
	return err
}

// WriteHeader emits the 'H' frame (payload is the caller's JSON header).
func (fw *FrameWriter) WriteHeader(payload []byte) error {
	return fw.SendFrame(append(fw.BeginFrame(FrameHeader), payload...))
}

// WriteTrailer emits the 'T' frame (payload is the caller's JSON trailer).
func (fw *FrameWriter) WriteTrailer(payload []byte) error {
	return fw.SendFrame(append(fw.BeginFrame(FrameTrailer), payload...))
}

// WriteBatch encodes and emits b as one 'B' frame — or, when the strings
// its rows hold reach BatchBytes, as one frame per run of rows whose
// strings reach it (the last run: what is left). BatchRows bounds a
// batch's fixed-width cells; this bounds its strings, so a frame stays
// near BatchBytes of strings however wide they are, and a frame only
// passes MaxFramePayload when a single row does.
func (fw *FrameWriter) WriteBatch(b *Batch) error {
	if b.strBytes() < BatchBytes {
		return fw.SendFrame(AppendBatch(fw.BeginFrame(FrameBatch), b))
	}
	lo, bytes := 0, 0
	for i := 0; i < b.n; i++ {
		if bytes += b.rowStrBytes(i); bytes >= BatchBytes || i == b.n-1 {
			if err := fw.SendFrame(appendRows(fw.BeginFrame(FrameBatch), b, lo, i+1)); err != nil {
				return err
			}
			lo, bytes = i+1, 0
		}
	}
	return nil
}

// WriteTuples batches and emits rows as one 'B' frame.
func (fw *FrameWriter) WriteTuples(tuples []storage.Tuple, arity int) error {
	if err := fw.batch.FillTuples(tuples, arity); err != nil {
		return err
	}
	return fw.WriteBatch(&fw.batch)
}

// AppendBatch appends the batch payload encoding of b to dst.
func AppendBatch(dst []byte, b *Batch) []byte { return appendRows(dst, b, 0, b.n) }

// appendRows appends the batch payload encoding of rows lo..hi-1 of b to
// dst, every column in the layout it has in b.
func appendRows(dst []byte, b *Batch, lo, hi int) []byte {
	dst = binary.AppendUvarint(dst, uint64(hi-lo))
	for c := range b.cols {
		col := &b.cols[c]
		if col.Mixed != nil {
			dst = append(dst, 4, 0)
			for _, v := range col.Mixed[lo:hi] {
				dst = appendValue(dst, v)
			}
			continue
		}
		var nulls []bool
		if col.Null != nil {
			nulls = col.Null[lo:hi]
		}
		switch col.Kind {
		case storage.KindNull:
			dst = append(dst, 0, 0)
		case storage.KindInt:
			dst = appendValidity(append(dst, 1), nulls, hi-lo)
			for i, v := range col.Ints[lo:hi] {
				if nulls == nil || !nulls[i] {
					dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
				}
			}
		case storage.KindFloat:
			dst = appendValidity(append(dst, 2), nulls, hi-lo)
			for i, v := range col.Floats[lo:hi] {
				if nulls == nil || !nulls[i] {
					dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
				}
			}
		case storage.KindString:
			dst = appendValidity(append(dst, 3), nulls, hi-lo)
			for i, v := range col.Strs[lo:hi] {
				if nulls == nil || !nulls[i] {
					dst = binary.AppendUvarint(dst, uint64(len(v)))
					dst = append(dst, v...)
				}
			}
		}
	}
	return dst
}

// appendValue encodes one value exactly as the storage tuple codec does
// for a column slot: kind byte, then payload.
func appendValue(dst []byte, v storage.Value) []byte {
	dst = append(dst, byte(v.Kind()))
	switch v.Kind() {
	case storage.KindInt:
		dst = binary.AppendVarint(dst, v.Int64())
	case storage.KindFloat:
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.Float64()))
	case storage.KindString:
		s := v.Str()
		dst = binary.AppendUvarint(dst, uint64(len(s)))
		dst = append(dst, s...)
	}
	return dst
}

// appendValidity writes the validity flag and, when nulls exist, the NULL
// bitmap (bit set = NULL).
func appendValidity(dst []byte, nulls []bool, n int) []byte {
	if nulls == nil {
		return append(dst, 0)
	}
	dst = append(dst, 1)
	var cur byte
	for i := 0; i < n; i++ {
		if nulls[i] {
			cur |= 1 << (uint(i) & 7)
		}
		if i&7 == 7 {
			dst = append(dst, cur)
			cur = 0
		}
	}
	if n&7 != 0 {
		dst = append(dst, cur)
	}
	return dst
}

// DecodeBatch decodes one batch payload with the given column count into a
// new batch. It returns ErrFrameCorrupt (wrapped with detail) on any
// malformed input and never panics.
func DecodeBatch(payload []byte, arity int) (*Batch, error) {
	b := &Batch{}
	if err := DecodeBatchInto(b, payload, arity); err != nil {
		return nil, err
	}
	return b, nil
}

// DecodeBatchInto is DecodeBatch over a batch the caller keeps: the
// frame's rows replace whatever b held, in the vectors b already has where
// they are long enough. On an error b is left empty.
//
// Nothing is allocated before the bytes that back it have been seen: the
// row count, the column count and their product are capped, and a typed
// column's vector is made only once its packed values are known to fit in
// what is left of the payload — a frame cannot make the decoder allocate
// more than a fixed multiple of its own length.
func DecodeBatchInto(b *Batch, payload []byte, arity int) error {
	err := decodeBatchInto(b, payload, arity)
	if err != nil {
		b.Reset(0, 0)
	}
	return err
}

func decodeBatchInto(b *Batch, payload []byte, arity int) error {
	if arity < 0 {
		return fmt.Errorf("%w: negative arity", ErrFrameCorrupt)
	}
	nrows, n := binary.Uvarint(payload)
	if n <= 0 {
		return fmt.Errorf("%w: bad row count", ErrFrameCorrupt)
	}
	if nrows > maxBatchRows {
		return fmt.Errorf("%w: row count %d exceeds limit", ErrFrameCorrupt, nrows)
	}
	pos := n
	// Every column costs at least its two layout bytes.
	if arity > (len(payload)-pos)/2 {
		return fmt.Errorf("%w: %d columns in %d bytes", ErrFrameCorrupt, arity, len(payload)-pos)
	}
	if nrows*uint64(arity) > maxBatchCells {
		return fmt.Errorf("%w: %d rows of %d columns exceed limit", ErrFrameCorrupt, nrows, arity)
	}
	rows := int(nrows)
	b.Reset(arity, rows)
	for c := 0; c < arity; c++ {
		if pos+2 > len(payload) {
			return fmt.Errorf("%w: truncated column %d", ErrFrameCorrupt, c)
		}
		colkind, validity := payload[pos], payload[pos+1]
		pos += 2
		col := &b.cols[c]
		if colkind == 4 {
			if validity != 0 {
				return fmt.Errorf("%w: mixed column %d with validity bitmap", ErrFrameCorrupt, c)
			}
			if rows > len(payload)-pos { // a value is at least its kind byte
				return fmt.Errorf("%w: truncated mixed column %d", ErrFrameCorrupt, c)
			}
			col.Mixed = grow(&col.spare.mixed, rows)
			for i := range col.Mixed {
				v, n, err := decodeValue(payload[pos:])
				if err != nil {
					return fmt.Errorf("%w: column %d row %d", err, c, i)
				}
				col.Mixed[i] = v
				pos += n
			}
			continue
		}
		// packed counts the slots whose values follow the bitmap.
		packed := rows
		var bitmap []byte
		switch validity {
		case 0:
		case 1:
			nbytes := (rows + 7) / 8
			if pos+nbytes > len(payload) {
				return fmt.Errorf("%w: validity bitmap overruns column %d", ErrFrameCorrupt, c)
			}
			bitmap = payload[pos : pos+nbytes]
			pos += nbytes
			for i := 0; i < rows; i++ {
				if bitmap[i/8]&(1<<(uint(i)&7)) != 0 {
					packed--
				}
			}
		default:
			return fmt.Errorf("%w: bad validity flag %d in column %d", ErrFrameCorrupt, validity, c)
		}
		width := 8 // bytes a packed value takes at least
		switch colkind {
		case 0:
			if validity != 0 {
				return fmt.Errorf("%w: all-NULL column %d with validity bitmap", ErrFrameCorrupt, c)
			}
			continue // Reset left the column all-NULL
		case 1:
			col.Kind = storage.KindInt
		case 2:
			col.Kind = storage.KindFloat
		case 3:
			col.Kind, width = storage.KindString, 1
		default:
			return fmt.Errorf("%w: bad column kind %d", ErrFrameCorrupt, colkind)
		}
		if packed*width > len(payload)-pos {
			return fmt.Errorf("%w: truncated %s column %d", ErrFrameCorrupt, col.Kind, c)
		}
		if bitmap != nil {
			col.Null = grow(&col.spare.null, rows)
			for i := range col.Null {
				col.Null[i] = bitmap[i/8]&(1<<(uint(i)&7)) != 0
			}
		}
		null := func(i int) bool { return col.Null != nil && col.Null[i] }
		// A NULL slot holds the zero value, whatever the last frame left there.
		switch col.Kind {
		case storage.KindInt:
			col.Ints = grow(&col.spare.ints, rows)
			for i := range col.Ints {
				if null(i) {
					col.Ints[i] = 0
					continue
				}
				col.Ints[i] = int64(binary.LittleEndian.Uint64(payload[pos:]))
				pos += 8
			}
		case storage.KindFloat:
			col.Floats = grow(&col.spare.floats, rows)
			for i := range col.Floats {
				if null(i) {
					col.Floats[i] = 0
					continue
				}
				col.Floats[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[pos:]))
				pos += 8
			}
		case storage.KindString:
			col.Strs = grow(&col.spare.strs, rows)
			for i := range col.Strs {
				if null(i) {
					col.Strs[i] = ""
					continue
				}
				l, n := binary.Uvarint(payload[pos:])
				if n <= 0 {
					return fmt.Errorf("%w: bad string length in column %d", ErrFrameCorrupt, c)
				}
				pos += n
				if l > uint64(len(payload)-pos) {
					return fmt.Errorf("%w: string overruns column %d", ErrFrameCorrupt, c)
				}
				col.Strs[i] = string(payload[pos : pos+int(l)])
				pos += int(l)
			}
		}
	}
	if pos != len(payload) {
		return fmt.Errorf("%w: %d trailing bytes", ErrFrameCorrupt, len(payload)-pos)
	}
	return nil
}

// decodeValue decodes one storage-codec value slot (kind byte + payload).
func decodeValue(buf []byte) (storage.Value, int, error) {
	if len(buf) == 0 {
		return storage.Null, 0, fmt.Errorf("%w: truncated value", ErrFrameCorrupt)
	}
	switch storage.Kind(buf[0]) {
	case storage.KindNull:
		return storage.Null, 1, nil
	case storage.KindInt:
		v, n := binary.Varint(buf[1:])
		if n <= 0 {
			return storage.Null, 0, fmt.Errorf("%w: bad varint", ErrFrameCorrupt)
		}
		return storage.Int(v), 1 + n, nil
	case storage.KindFloat:
		if len(buf) < 9 {
			return storage.Null, 0, fmt.Errorf("%w: truncated float", ErrFrameCorrupt)
		}
		return storage.Float(math.Float64frombits(binary.LittleEndian.Uint64(buf[1:]))), 9, nil
	case storage.KindString:
		l, n := binary.Uvarint(buf[1:])
		if n <= 0 {
			return storage.Null, 0, fmt.Errorf("%w: bad string length", ErrFrameCorrupt)
		}
		if l > uint64(len(buf)-1-n) {
			return storage.Null, 0, fmt.Errorf("%w: string overrun", ErrFrameCorrupt)
		}
		return storage.StringVal(string(buf[1+n : 1+n+int(l)])), 1 + n + int(l), nil
	default:
		return storage.Null, 0, fmt.Errorf("%w: bad value kind %d", ErrFrameCorrupt, buf[0])
	}
}

// Frame is one decoded frame: its type byte and raw payload. Batch frames
// are decoded on demand by the caller (DecodeBatch) once the arity is
// known from the header.
type Frame struct {
	Type    byte
	Payload []byte
}

// FrameReader consumes one binary stream. The payload returned by Next is
// only valid until the following Next call.
type FrameReader struct {
	r       io.Reader
	started bool
	magic   [4]byte
	hdr     [frameHeaderLen]byte
	buf     []byte
}

// NewFrameReader reads frames from r as they are asked for. It adds no
// buffer of its own: a frame is two reads — its header, then its payload
// into the reader's one payload buffer — so r should be buffered when small
// reads cost a system call each (an HTTP body already is).
func NewFrameReader(r io.Reader) *FrameReader { return &FrameReader{r: r} }

// Reset readies fr for a new stream from r, keeping its payload buffer as
// capacity. Under PoisonReused the buffer is overwritten: a payload read
// after its stream ended shows as garbage.
func (fr *FrameReader) Reset(r io.Reader) {
	fr.r, fr.started = r, false
	if poisonReused {
		poison(fr.buf, 0xdb)
	}
}

// Bytes is the memory fr retains: its payload buffer.
func (fr *FrameReader) Bytes() int64 { return int64(cap(fr.buf)) }

// Next returns the next frame, io.EOF at a clean end of input (only
// between frames), or an error. A stream cut inside a frame surfaces
// io.ErrUnexpectedEOF.
func (fr *FrameReader) Next() (Frame, error) {
	if !fr.started {
		if _, err := io.ReadFull(fr.r, fr.magic[:]); err != nil {
			if err == io.EOF {
				return Frame{}, io.ErrUnexpectedEOF
			}
			return Frame{}, err
		}
		if string(fr.magic[:]) != FrameMagic {
			return Frame{}, fmt.Errorf("%w: bad magic %q", ErrFrameCorrupt, fr.magic)
		}
		fr.started = true
	}
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return Frame{}, io.ErrUnexpectedEOF
		}
		return Frame{}, err
	}
	typ := fr.hdr[0]
	switch typ {
	case FrameHeader, FrameBatch, FrameTrailer:
	default:
		return Frame{}, fmt.Errorf("%w: bad frame type %d", ErrFrameCorrupt, typ)
	}
	size := binary.LittleEndian.Uint32(fr.hdr[1:])
	if size > MaxFramePayload {
		return Frame{}, fmt.Errorf("%w: frame payload %d exceeds limit", ErrFrameCorrupt, size)
	}
	if cap(fr.buf) < int(size) {
		fr.buf = make([]byte, size)
	}
	fr.buf = fr.buf[:size]
	if _, err := io.ReadFull(fr.r, fr.buf); err != nil {
		if err == io.EOF {
			return Frame{}, io.ErrUnexpectedEOF
		}
		return Frame{}, err
	}
	return Frame{Type: typ, Payload: fr.buf}, nil
}
