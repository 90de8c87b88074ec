package service

import (
	"bufio"
	"io"
	"sync/atomic"

	"repro/internal/recycle"
	"repro/internal/stream"
)

// The wire workspace: what one stream encodes its frames in and decodes
// them out of — a binary stream's frame writer (WriteStream, a pushed
// body's encodeFrameBody), a binary stream's frame reader and the batch its
// frames decode into (StreamReader, readFrameBody), an NDJSON stream's line
// reader. Each comes from an internal/recycle free list when its stream
// starts and goes back exactly once when the stream ends, so a warm process
// allocates none of it per statement; /metrics counts what the lists hold
// in windowdb_workspace_bytes.

// ndjsonBuffer is an NDJSON stream's line buffer: long lines still read,
// in more than one fill.
const ndjsonBuffer = 64 << 10

var (
	frameWriters = recycle.NewList((*stream.FrameWriter).Bytes)
	frameReads   = recycle.NewList((*frameRead).bytes)
	lineReaders  = recycle.NewList(func(br *bufio.Reader) int64 { return int64(br.Size()) })
)

// wireOut counts the wire workspaces taken and not yet given back: 0
// whenever no stream is open. The tests hold every way a stream ends to
// bringing it back there.
var wireOut atomic.Int64

// takeFrameWriter returns a frame writer for a new stream to w.
func takeFrameWriter(w io.Writer) *stream.FrameWriter {
	wireOut.Add(1)
	fw := frameWriters.Get()
	fw.Reset(w)
	return fw
}

// giveBackFrameWriter puts fw, whose stream has ended, back on its list.
func giveBackFrameWriter(fw *stream.FrameWriter) {
	fw.Reset(nil)
	frameWriters.Put(fw)
	wireOut.Add(-1)
}

// frameRead is a binary stream's read workspace: its frame reader and the
// batch every batch frame decodes into.
type frameRead struct {
	fr    stream.FrameReader
	batch stream.Batch
}

func (f *frameRead) bytes() int64 { return f.fr.Bytes() + f.batch.Bytes() }

// takeFrameRead returns a read workspace for a new stream from r.
func takeFrameRead(r io.Reader) *frameRead {
	wireOut.Add(1)
	f := frameReads.Get()
	f.fr.Reset(r)
	return f
}

// giveBackFrameRead puts f, whose stream has ended, back on its list.
func giveBackFrameRead(f *frameRead) {
	f.fr.Reset(nil)
	f.batch.Clear()
	frameReads.Put(f)
	wireOut.Add(-1)
}

// takeLineReader returns an NDJSON line reader over r.
func takeLineReader(r io.Reader) *bufio.Reader {
	wireOut.Add(1)
	br := lineReaders.Get()
	if br.Size() == 0 {
		*br = *bufio.NewReaderSize(nil, ndjsonBuffer)
	}
	br.Reset(r)
	return br
}

// giveBackLineReader puts br, whose stream has ended, back on its list.
func giveBackLineReader(br *bufio.Reader) {
	br.Reset(nil)
	lineReaders.Put(br)
	wireOut.Add(-1)
}
