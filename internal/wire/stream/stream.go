// Package stream binds the wire codec's length-prefixed frames to a
// byte stream. internal/wire defines what a frame IS — u32 little-endian
// body length, then the body — and assumes each DecodeFrame call sees at
// least one complete frame; a real socket delivers bytes with no such
// courtesy: frames arrive split and concatenated at arbitrary read
// boundaries, and a hostile peer can claim any length it likes. This
// package owns exactly that gap.
//
//   - Decoder reassembles frames incrementally: Feed it whatever chunk
//     the transport produced, then drain complete frames with Next. A
//     frame is surfaced only once every one of its bytes has arrived —
//     the decoder never yields a torn frame, and FuzzStreamDecode pins
//     that against arbitrary split/concat boundaries.
//   - Hostile lengths fail fast: a zero-length body or a length beyond
//     the decoder's bound poisons the decoder with an error instead of
//     provoking a speculative allocation; the connection must be dropped.
//   - FrameReader/WriteFrame adapt a net.Conn: per-frame read/write
//     deadlines (wall clock — deadlines guard real sockets even when the
//     control plane schedules on a simulated clock), a reused read chunk,
//     and EOF discrimination (a clean close between frames is io.EOF; a
//     close mid-frame is io.ErrUnexpectedEOF — the conn-level torn-frame
//     signal, distinct from a delivered frame).
//
// One Decoder serves one connection; neither type is safe for concurrent
// use.
package stream

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"repro/internal/wire"
)

// MaxFrameBody is the default bound on a frame body length accepted off
// a stream. A delta frame batching DefaultFeedBatch full job documents
// stays well under it; anything larger is a corrupt or hostile length.
const MaxFrameBody = 1 << 26 // 64 MiB

// ErrFrameTooLarge is returned (wrapped) when a length prefix exceeds
// the decoder's bound. The stream is unrecoverable past it: the decoder
// cannot know where the next frame starts.
var ErrFrameTooLarge = fmt.Errorf("%w: frame body exceeds stream bound", wire.ErrMalformed)

// Decoder incrementally reassembles length-prefixed frames from a byte
// stream fed in arbitrary chunks. The zero value is ready. Internal
// buffer capacity is retained across frames, so a warm connection
// decodes without allocating.
type Decoder struct {
	// MaxBody bounds the accepted frame body length; 0 means
	// MaxFrameBody. Servers reading small request frames set a tight
	// bound so a hostile length is rejected before any buffering.
	MaxBody int

	buf []byte
	off int // consumed prefix of buf
	err error
}

// Feed appends a chunk of stream bytes. The chunk is copied; the caller
// may reuse p immediately. Feeding after an error is a no-op.
func (d *Decoder) Feed(p []byte) {
	if d.err != nil {
		return
	}
	// Compact once everything buffered is consumed (the common
	// frame-per-poll case keeps the buffer perpetually empty), or when
	// the dead prefix outgrows the live remainder.
	if d.off == len(d.buf) {
		d.buf = d.buf[:0]
		d.off = 0
	} else if d.off > len(d.buf)-d.off {
		n := copy(d.buf, d.buf[d.off:])
		d.buf = d.buf[:n]
		d.off = 0
	}
	d.buf = append(d.buf, p...)
}

// Buffered returns the number of unconsumed bytes held — nonzero at
// stream end means the peer died mid-frame.
func (d *Decoder) Buffered() int { return len(d.buf) - d.off }

// Reset discards buffered bytes and clears any error, keeping capacity.
// Use when binding the decoder to a new connection.
func (d *Decoder) Reset() {
	d.buf = d.buf[:0]
	d.off = 0
	d.err = nil
}

// Next surfaces the next complete frame, if one has fully arrived.
// ok=false with a nil error means more bytes are needed. kind and body
// are views into the decoder's buffer, valid only until the next Feed
// call. A non-nil error (hostile length, empty frame) is sticky: the
// stream cannot be re-synchronized and the connection must be dropped.
func (d *Decoder) Next() (kind byte, body []byte, ok bool, err error) {
	if d.err != nil {
		return 0, nil, false, d.err
	}
	avail := d.buf[d.off:]
	if len(avail) < 4 {
		return 0, nil, false, nil
	}
	n := binary.LittleEndian.Uint32(avail)
	if n == 0 {
		d.err = fmt.Errorf("%w: empty frame body on stream", wire.ErrMalformed)
		return 0, nil, false, d.err
	}
	max := d.MaxBody
	if max <= 0 {
		max = MaxFrameBody
	}
	if uint64(n) > uint64(max) {
		d.err = fmt.Errorf("%w (%d > %d)", ErrFrameTooLarge, n, max)
		return 0, nil, false, d.err
	}
	if uint64(len(avail)-4) < uint64(n) {
		return 0, nil, false, nil
	}
	frame := avail[4 : 4+n]
	d.off += 4 + int(n)
	return frame[0], frame[1:], true, nil
}

// readChunk is the FrameReader's per-Read buffer size. Feed copies out
// of it, so it can stay modest without bounding frame size.
const readChunk = 32 << 10

// FrameReader reads complete frames from a net.Conn through a Decoder.
// Not safe for concurrent use; one per connection.
type FrameReader struct {
	conn net.Conn
	dec  Decoder
	// Timeout is the per-ReadFrame deadline (0 = none). It is armed on
	// the conn once per ReadFrame call, so a peer that trickles bytes
	// cannot hold a read open indefinitely.
	Timeout time.Duration
	chunk   []byte
}

// NewFrameReader returns a FrameReader over conn with the given
// per-frame read timeout and request-body bound (0 = MaxFrameBody).
func NewFrameReader(conn net.Conn, timeout time.Duration, maxBody int) *FrameReader {
	r := &FrameReader{conn: conn, Timeout: timeout}
	r.dec.MaxBody = maxBody
	return r
}

// ReadFrame blocks until one complete frame arrives, the deadline
// expires, or the stream errors. The returned body is a view into the
// reader's buffer, valid until the next ReadFrame call. A clean peer
// close between frames returns io.EOF; a close mid-frame returns
// io.ErrUnexpectedEOF.
func (r *FrameReader) ReadFrame() (kind byte, body []byte, err error) {
	if r.Timeout > 0 {
		// net.Pipe refuses a deadline once either end has closed. The
		// read below then returns at once and tells a peer close (EOF)
		// from a local one, which the deadline error cannot.
		err := r.conn.SetReadDeadline(time.Now().Add(r.Timeout))
		if err != nil && !errors.Is(err, io.ErrClosedPipe) {
			return 0, nil, err
		}
	}
	if r.chunk == nil {
		r.chunk = make([]byte, readChunk)
	}
	for {
		kind, body, ok, err := r.dec.Next()
		if err != nil {
			return 0, nil, err
		}
		if ok {
			return kind, body, nil
		}
		n, err := r.conn.Read(r.chunk)
		if n > 0 {
			r.dec.Feed(r.chunk[:n])
			// Surface a frame completed by this chunk before the sticky
			// error that arrived with it.
			continue
		}
		if err == nil {
			// A conforming conn never returns (0, nil), but looping on
			// one would spin; treat it as a dead stream.
			err = io.ErrUnexpectedEOF
		}
		if err == io.EOF && r.dec.Buffered() > 0 {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
}

// Buffered reports stream bytes held beyond the last returned frame.
// In a request/response protocol it must be zero between exchanges;
// anything else means the stream is desynchronized.
func (r *FrameReader) Buffered() int { return r.dec.Buffered() }

// WriteFrame writes one already-encoded frame (length prefix included)
// under a write deadline (0 = none). Short writes surface as errors per
// net.Conn semantics.
func WriteFrame(conn net.Conn, frame []byte, timeout time.Duration) error {
	if timeout > 0 {
		if err := conn.SetWriteDeadline(time.Now().Add(timeout)); err != nil {
			return err
		}
	}
	_, err := conn.Write(frame)
	return err
}
