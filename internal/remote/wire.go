package remote

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"dmx/internal/types"
)

// maxFrame caps a frame's payload. A longer length prefix is refused
// before any of the frame is read, so a corrupt prefix cannot make the
// reader allocate gigabytes.
const maxFrame = 64 << 20

// readBufSize sizes each end's connection reader: large enough that a
// frame up to a 100-entry scan batch arrives in one read call, length
// prefix and payload together.
const readBufSize = 16 << 10

var (
	errMalformed = errors.New("remote: malformed frame")
	errTooLong   = fmt.Errorf("remote: frame exceeds %d bytes", maxFrame)
)

// openFrame starts a frame in buf: room for the length prefix.
func openFrame(buf []byte) []byte { return append(buf[:0], 0, 0, 0, 0) }

// closeFrame fills in the length prefix of a frame started by openFrame.
func closeFrame(frame []byte) ([]byte, error) {
	n := len(frame) - 4
	if n > maxFrame {
		return frame, errTooLong
	}
	binary.BigEndian.PutUint32(frame, uint32(n))
	return frame, nil
}

// readFrame reads one frame from r and returns its payload, copied into
// buf when buf is large enough and into a new slice otherwise, so it never
// aliases r's buffer.
func readFrame(r *bufio.Reader, buf []byte) ([]byte, error) {
	hdr, err := r.Peek(4)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n > maxFrame {
		return nil, errTooLong
	}
	r.Discard(4)
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// appendBytes appends b as a length-prefixed field.
func appendBytes[T string | []byte](dst []byte, b T) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(b))), b...)
}

// appendRecord appends rec's encoding as a length-prefixed field, without
// an intermediate buffer: the encoding is appended first, then shifted up
// past its length prefix.
func appendRecord(dst []byte, rec types.Record) []byte {
	start := len(dst)
	dst = rec.AppendEncode(dst)
	var pre [binary.MaxVarintLen64]byte
	p := binary.PutUvarint(pre[:], uint64(len(dst)-start))
	dst = append(dst, pre[:p]...)
	copy(dst[start+p:], dst[start:len(dst)-p])
	copy(dst[start:], pre[:p])
	return dst
}

// appendRequestHead appends every field of req but the last, Rec.
func appendRequestHead(dst []byte, req *Request) []byte {
	dst = append(dst, byte(req.Op))
	dst = binary.AppendUvarint(dst, req.TxnID)
	dst = binary.AppendUvarint(dst, uint64(req.Limit))
	dst = appendBytes(dst, req.Table)
	dst = appendBytes(dst, req.Key)
	return appendBytes(dst, req.End)
}

func appendRequest(dst []byte, req *Request) []byte {
	return appendBytes(appendRequestHead(dst, req), req.Rec)
}

func appendResponse(dst []byte, resp *Response) []byte {
	dst = appendBytes(dst, resp.Err)
	dst = appendBytes(dst, resp.Key)
	dst = appendBytes(dst, resp.Rec)
	dst = binary.AppendUvarint(dst, uint64(resp.Count))
	dst = binary.AppendUvarint(dst, uint64(len(resp.Entries)))
	for _, e := range resp.Entries {
		dst = appendBytes(appendBytes(dst, e.Key), e.Rec)
	}
	dst = binary.AppendUvarint(dst, uint64(len(resp.TxnIDs)))
	for _, id := range resp.TxnIDs {
		dst = binary.AppendUvarint(dst, id)
	}
	return dst
}

// decoder reads a payload front to back. The first malformed field marks
// it bad, and every later read returns a zero value.
type decoder struct {
	b   []byte
	bad bool
}

func (d *decoder) fail() {
	d.b, d.bad = nil, true
}

// uvarint refuses a truncated, overflowing or non-minimal encoding, so
// that every accepted payload re-encodes to the same bytes.
func (d *decoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 || n > 1 && d.b[n-1] == 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

// bytes returns a length-prefixed field aliasing the payload, capped so
// that appending to it cannot overwrite the next field. A zero-length
// field is nil.
func (d *decoder) bytes() []byte {
	n := d.uvarint()
	if n > uint64(len(d.b)) {
		d.fail()
		return nil
	}
	if n == 0 {
		return nil
	}
	v := d.b[:n:n]
	d.b = d.b[n:]
	return v
}

// count reads an element count and refuses one the remaining bytes cannot
// hold at least size bytes each of, before anything is allocated for it.
func (d *decoder) count(size int) int {
	n := d.uvarint()
	if n > uint64(len(d.b)/size) {
		d.fail()
		return 0
	}
	return int(n)
}

func (d *decoder) done() error {
	if d.bad || len(d.b) > 0 {
		return errMalformed
	}
	return nil
}

// decodeRequest decodes a request payload into req. Key, End and Rec alias
// the payload. req.Table keeps its string when the name is unchanged, so a
// connection that keeps addressing one table allocates no name per request.
func decodeRequest(b []byte, req *Request) error {
	if len(b) == 0 {
		return errMalformed
	}
	d := decoder{b: b[1:]}
	req.Op = Op(b[0])
	req.TxnID = d.uvarint()
	req.Limit = int(d.uvarint())
	if name := d.bytes(); string(name) != req.Table {
		req.Table = string(name)
	}
	req.Key = d.bytes()
	req.End = d.bytes()
	req.Rec = d.bytes()
	return d.done()
}

// decodeResponse decodes a response payload into resp. Key, Rec and every
// Entry alias the payload.
func decodeResponse(b []byte, resp *Response) error {
	d := decoder{b: b}
	resp.Err = string(d.bytes())
	resp.Key = d.bytes()
	resp.Rec = d.bytes()
	resp.Count = int(d.uvarint())
	if n := d.count(2); n > 0 {
		resp.Entries = make([]Entry, n)
		for i := range resp.Entries {
			resp.Entries[i] = Entry{Key: d.bytes(), Rec: d.bytes()}
		}
	}
	if n := d.count(1); n > 0 {
		resp.TxnIDs = make([]uint64, n)
		for i := range resp.TxnIDs {
			resp.TxnIDs[i] = d.uvarint()
		}
	}
	return d.done()
}
