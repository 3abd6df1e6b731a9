package wire

import (
	"errors"
	"fmt"
	"io"
)

// ErrFrameLength reports a frame whose length field lies outside
// [HeaderLen-4, MaxFrame]: a framing violation, after which the stream
// cannot be trusted.
var ErrFrameLength = errors.New("bad frame length")

// frameBufMin is a FrameReader's first buffer; frameBufMax caps its
// growth (it always holds one MaxFrame frame).
const (
	frameBufMin = 4 << 10
	frameBufMax = 2 * MaxFrame
)

// FrameReader reads frames from a stream through one buffer. The buffer
// starts at 4 KiB when the first frame arrives and grows, up to
// frameBufMax, to four times the largest frame the stream has carried,
// so a connection's read memory follows its traffic while a pipelined
// burst still arrives in few reads.
type FrameReader struct {
	r        io.Reader
	buf      []byte
	off, end int // buf[off:end] is read but not yet returned
}

// NewFrameReader returns a FrameReader over r.
func NewFrameReader(r io.Reader) *FrameReader { return &FrameReader{r: r} }

// Reset discards any buffered bytes and reads from r from now on,
// keeping the buffer.
func (fr *FrameReader) Reset(r io.Reader) { fr.r, fr.off, fr.end = r, 0, 0 }

// Buffered reports how many bytes of a frame not yet returned are held:
// non-zero after a failed Next means the stream stopped mid-frame.
func (fr *FrameReader) Buffered() int { return fr.end - fr.off }

// Next reads one frame. payload aliases the buffer and is valid until
// the next call. A clean end of stream between frames is io.EOF; an end
// inside a frame is io.ErrUnexpectedEOF. A length outside the protocol
// limits wraps ErrFrameLength and still reports the header's id. After
// any other error (a read deadline, say) the partial frame stays
// buffered and Next may be called again.
func (fr *FrameReader) Next() (id uint64, op byte, payload []byte, err error) {
	if err = fr.fill(HeaderLen); err != nil {
		return 0, 0, nil, err
	}
	h := fr.buf[fr.off:]
	length, id := le.Uint32(h), le.Uint64(h[4:])
	if length < HeaderLen-4 || length > MaxFrame {
		return id, 0, nil, fmt.Errorf("%w %d (want %d..%d)", ErrFrameLength, length, HeaderLen-4, MaxFrame)
	}
	n := 4 + int(length)
	if err = fr.fill(n); err != nil {
		return 0, 0, nil, err
	}
	f := fr.buf[fr.off : fr.off+n]
	fr.off += n
	return id, f[HeaderLen-1], f[HeaderLen:], nil
}

// fill reads until n bytes past off are buffered, first moving the
// partial frame to the front (and into a larger buffer if n needs one)
// so each read gets all the room there is.
func (fr *FrameReader) fill(n int) error {
	for fr.end-fr.off < n {
		if fr.off > 0 || n > len(fr.buf) {
			buf := fr.buf
			if n > len(buf) {
				buf = make([]byte, min(max(4*n, frameBufMin), frameBufMax))
			}
			fr.end = copy(buf, fr.buf[fr.off:fr.end])
			fr.buf, fr.off = buf, 0
		}
		m, err := fr.r.Read(fr.buf[fr.end:])
		fr.end += m
		if err != nil && fr.end < n {
			if err == io.EOF && fr.end > 0 {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
	}
	return nil
}
