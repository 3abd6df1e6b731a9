package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
	"testing/iotest"
)

type frame struct {
	id      uint64
	op      byte
	payload []byte
}

// readAll drains r through a FrameReader, copying each payload (it
// aliases the reader's buffer), and returns the frames and the error
// that ended the stream.
func readAll(r io.Reader) ([]frame, error) {
	fr := NewFrameReader(r)
	var out []frame
	for {
		id, op, payload, err := fr.Next()
		if err != nil {
			return out, err
		}
		out = append(out, frame{id, op, append([]byte(nil), payload...)})
	}
}

// refFrames is the reference decoder: the read-header, check-length,
// read-payload loop the FrameReader replaced, over an in-memory stream
// (except that an end of stream right after a header is unexpected: the
// old loop's io.ReadFull called it a clean io.EOF).
func refFrames(b []byte) ([]frame, error) {
	r := bytes.NewReader(b)
	var out []frame
	for {
		var hdr [HeaderLen]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return out, err
		}
		length := binary.LittleEndian.Uint32(hdr[:])
		if length < HeaderLen-4 || length > MaxFrame {
			return out, ErrFrameLength
		}
		payload := make([]byte, length-(HeaderLen-4))
		if _, err := io.ReadFull(r, payload); err != nil {
			return out, io.ErrUnexpectedEOF
		}
		out = append(out, frame{binary.LittleEndian.Uint64(hdr[4:]), hdr[12], payload})
	}
}

func sameFrames(t *testing.T, name string, got, want []frame) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d frames, want %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i].id != want[i].id || got[i].op != want[i].op || !bytes.Equal(got[i].payload, want[i].payload) {
			t.Fatalf("%s: frame %d = id %d op %#x %d bytes, want id %d op %#x %d bytes", name, i,
				got[i].id, got[i].op, len(got[i].payload), want[i].id, want[i].op, len(want[i].payload))
		}
	}
}

// testStream is a mixed stream: point and batch requests, an empty
// payload, a scan chunk, and frames larger than the first buffer.
func testStream() []byte {
	var b []byte
	b = AppendPoint(b, 1, OpGet, 42, 0)
	b = AppendStats(b, 2)
	keys := make([]uint64, MaxBatch)
	for i := range keys {
		keys[i] = uint64(i + 1)
	}
	b = AppendBatch(b, 3, OpMPut, keys, keys)
	b = AppendPoint(b, 4, OpPut, 7, 8)
	start := len(b)
	b = BeginChunk(b, 5)
	for i := 0; i < MaxChunkPairs; i++ {
		b = AppendPair(b, uint64(i), uint64(i))
	}
	b = FinishChunk(b, start, true)
	b = AppendBatch(b, 6, OpMGet, keys[:300], nil)
	return AppendPoint(b, 7, OpDelete, 9, 0)
}

// TestFrameReaderSplitReads: however the stream is cut into reads, the
// frames are the ones the reference decoder sees, and the stream ends
// with a clean io.EOF.
func TestFrameReaderSplitReads(t *testing.T) {
	stream := testStream()
	want, werr := refFrames(stream)
	if werr != io.EOF || len(want) != 7 {
		t.Fatalf("reference: %d frames, %v", len(want), werr)
	}
	for name, r := range map[string]io.Reader{
		"whole":    bytes.NewReader(stream),
		"one-byte": iotest.OneByteReader(bytes.NewReader(stream)),
		"half":     iotest.HalfReader(bytes.NewReader(stream)),
		"data-err": iotest.DataErrReader(bytes.NewReader(stream)),
	} {
		got, err := readAll(r)
		if err != io.EOF {
			t.Fatalf("%s: stream ended with %v, want io.EOF", name, err)
		}
		sameFrames(t, name, got, want)
	}
}

// TestFrameReaderLengths: the length field's bounds are 9 (an empty
// payload) and MaxFrame; 8 and MaxFrame+1 are framing errors that still
// report the header's id.
func TestFrameReaderLengths(t *testing.T) {
	for _, tc := range []struct {
		length uint32
		ok     bool
	}{{8, false}, {9, true}, {MaxFrame, true}, {MaxFrame + 1, false}} {
		b := make([]byte, 4+max(tc.length, HeaderLen-4))
		binary.LittleEndian.PutUint32(b, tc.length)
		binary.LittleEndian.PutUint64(b[4:], 77)
		b[12] = OpStats
		id, op, payload, err := NewFrameReader(bytes.NewReader(b)).Next()
		switch {
		case tc.ok && (err != nil || id != 77 || op != OpStats || len(payload) != int(tc.length)-9):
			t.Errorf("length %d: id %d op %#x %d bytes, %v", tc.length, id, op, len(payload), err)
		case !tc.ok && (!errors.Is(err, ErrFrameLength) || id != 77):
			t.Errorf("length %d: id %d, %v; want ErrFrameLength for id 77", tc.length, id, err)
		}
	}
}

// TestFrameReaderEOF: a stream cut anywhere inside a frame — header or
// payload — ends with io.ErrUnexpectedEOF and a partial frame buffered;
// cut between frames, it ends with io.EOF and nothing buffered. Servers
// tell a peer that hung up from one that broke off by this.
func TestFrameReaderEOF(t *testing.T) {
	stream := AppendPoint(AppendPoint(nil, 1, OpPut, 5, 6), 2, OpGet, 5, 0)
	first := len(AppendPoint(nil, 1, OpPut, 5, 6))
	for cut := 0; cut <= len(stream); cut++ {
		fr := NewFrameReader(bytes.NewReader(stream[:cut]))
		var err error
		for err == nil {
			_, _, _, err = fr.Next()
		}
		between := cut == 0 || cut == first || cut == len(stream)
		switch {
		case between && (err != io.EOF || fr.Buffered() != 0):
			t.Errorf("cut %d: %v with %d bytes buffered, want io.EOF and none", cut, err, fr.Buffered())
		case !between && (err != io.ErrUnexpectedEOF || fr.Buffered() == 0):
			t.Errorf("cut %d: %v with %d bytes buffered, want io.ErrUnexpectedEOF and some", cut, err, fr.Buffered())
		}
	}
}

// stallReader delivers its bytes up to stall, then fails once with
// errStall (as a read deadline would), then delivers the rest.
type stallReader struct {
	b       []byte
	stall   int
	stalled bool
}

var errStall = errors.New("stalled")

func (r *stallReader) Read(p []byte) (int, error) {
	if !r.stalled && r.stall == 0 {
		r.stalled = true
		return 0, errStall
	}
	lim := len(r.b)
	if !r.stalled {
		lim = r.stall
	}
	if lim == 0 {
		return 0, io.EOF
	}
	n := copy(p, r.b[:lim])
	r.b, r.stall = r.b[n:], r.stall-n
	return n, nil
}

// TestFrameReaderResumes: an error mid-frame keeps the partial frame
// buffered, and the next call completes it.
func TestFrameReaderResumes(t *testing.T) {
	stream := AppendPoint(nil, 9, OpPut, 5, 6)
	for stall := 1; stall < len(stream); stall++ {
		fr := NewFrameReader(&stallReader{b: stream, stall: stall})
		if _, _, _, err := fr.Next(); err != errStall || fr.Buffered() != stall {
			t.Fatalf("stall %d: %v with %d bytes buffered", stall, err, fr.Buffered())
		}
		id, op, payload, err := fr.Next()
		if err != nil || id != 9 || op != OpPut || len(payload) != 16 {
			t.Fatalf("stall %d: resumed as id %d op %#x %d bytes, %v", stall, id, op, len(payload), err)
		}
	}
}

// TestFrameReaderBufferFollowsFrames: a long stream of point frames never
// grows the buffer past its first 4 KB; MaxFrame frames grow it to its
// cap and no further.
func TestFrameReaderBufferFollowsFrames(t *testing.T) {
	var points []byte
	for i := 0; i < 40_000; i++ {
		points = AppendPoint(points, uint64(i), OpPut, uint64(i+1), 1)
	}
	fr := NewFrameReader(bytes.NewReader(points))
	for n := 0; ; n++ {
		if _, _, _, err := fr.Next(); err == io.EOF {
			if n != 40_000 {
				t.Fatalf("read %d point frames, want 40000", n)
			}
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if len(fr.buf) > frameBufMin {
		t.Errorf("point stream grew the buffer to %d B, want <= %d", len(fr.buf), frameBufMin)
	}

	big := make([]byte, 0, 3*(MaxFrame+4))
	for i := 0; i < 3; i++ {
		start := len(big)
		big = beginFrame(big, uint64(i), RespError)
		big = append(big, make([]byte, MaxFrame-9)...)
		big = finishFrame(big, start)
	}
	fr.Reset(bytes.NewReader(big))
	for i := 0; i < 3; i++ {
		if _, _, payload, err := fr.Next(); err != nil || len(payload) != MaxFrame-9 {
			t.Fatalf("max frame %d: %d bytes, %v", i, len(payload), err)
		}
	}
	if len(fr.buf) > frameBufMax {
		t.Errorf("max frames grew the buffer to %d B, want <= %d", len(fr.buf), frameBufMax)
	}
}

// FuzzFrameReader: on any byte stream, whole or cut into one-byte reads,
// the FrameReader returns exactly the reference decoder's frames and
// ends the same way.
func FuzzFrameReader(f *testing.F) {
	f.Add(testStream())
	f.Add(AppendPoint(nil, 1, OpGet, 2, 0)[:7])
	f.Add(AppendPoint(nil, 1, OpGet, 2, 0)[:HeaderLen])
	f.Add([]byte{8, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(append(AppendStats(nil, 1), 0xFF, 0xFF, 0xFF, 0xFF))
	f.Fuzz(func(t *testing.T, stream []byte) {
		want, werr := refFrames(stream)
		for name, r := range map[string]io.Reader{
			"whole":    bytes.NewReader(stream),
			"one-byte": iotest.OneByteReader(bytes.NewReader(stream)),
		} {
			got, err := readAll(r)
			if errors.Is(err, ErrFrameLength) {
				err = ErrFrameLength
			}
			if err != werr {
				t.Fatalf("%s: stream ended with %v, reference with %v", name, err, werr)
			}
			sameFrames(t, name, got, want)
		}
	})
}
