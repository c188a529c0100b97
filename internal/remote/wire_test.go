package remote

import (
	"bufio"
	"bytes"
	"net"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dmx/internal/types"
)

// sampleRequests returns one request of every Op, shaped as the client sends it.
func sampleRequests() []Request {
	r := rec(types.Int(42), types.Str("forty-two")).AppendEncode(nil)
	k := []byte("key-1")
	return []Request{
		{Op: OpPut, Table: "t", Key: k, Rec: r},
		{Op: OpDelete, Table: "t", Key: k},
		{Op: OpGet, TxnID: 7, Table: "t", Key: k},
		{Op: OpScan, TxnID: 7, Table: "t", Key: k, Limit: 100},
		{Op: OpCreate, Table: "t"},
		{Op: OpDrop, Table: "t"},
		{Op: OpCount, Table: "t"},
		{Op: OpStagePut, TxnID: 1 << 40, Table: "t", Rec: r},
		{Op: OpStageDelete, TxnID: 7, Table: "t", Key: k},
		{Op: OpPrepare, TxnID: 7},
		{Op: OpCommitTxn, TxnID: 7},
		{Op: OpAbortTxn, TxnID: 7},
		{Op: OpInDoubt},
		{Op: OpStageInsert, TxnID: 7, Table: "t", Key: k, Rec: r},
		{Op: OpScan, TxnID: 7, Table: "t", Key: k, End: []byte("key-9"), Limit: 100},
	}
}

func sampleResponses() []Response {
	r := rec(types.Int(1), types.Str("a")).AppendEncode(nil)
	return []Response{
		{},
		{Err: "remote: key not found"},
		{Key: []byte{0, 0, 0, 0, 0, 0, 0, 9}},
		{Rec: r},
		{Count: 300},
		{Entries: []Entry{{Key: []byte("a"), Rec: r}, {Key: []byte("b"), Rec: r}, {Key: []byte("c"), Rec: r}}},
		{TxnIDs: []uint64{3, 1 << 33, 90}},
	}
}

// TestWireRoundTrip decodes every encoded sample back to itself, and a
// zero-length byte field to nil: a Put's empty key still means "assign".
func TestWireRoundTrip(t *testing.T) {
	for _, req := range append(sampleRequests(), Request{Op: OpPut, Table: "t", Key: []byte{}}) {
		var got Request
		if err := decodeRequest(appendRequest(nil, &req), &got); err != nil {
			t.Fatalf("%v: %v", req.Op, err)
		}
		if len(req.Key) == 0 {
			req.Key = nil
		}
		if !reflect.DeepEqual(got, req) {
			t.Fatalf("request %v decodes to %+v", req, got)
		}
	}
	for _, resp := range sampleResponses() {
		var got Response
		if err := decodeResponse(appendResponse(nil, &resp), &got); err != nil {
			t.Fatalf("%+v: %v", resp, err)
		}
		if !reflect.DeepEqual(got, resp) {
			t.Fatalf("response %+v decodes to %+v", resp, got)
		}
	}
	// A record is appended straight into the frame, then shifted past its
	// length prefix; the prefix takes one, two or three bytes.
	for _, n := range []int{0, 100, 20000} {
		r := rec(types.Int(1), types.Str(strings.Repeat("x", n)))
		want := appendBytes([]byte("head"), r.AppendEncode(nil))
		if got := appendRecord([]byte("head"), r); !bytes.Equal(got, want) {
			t.Fatalf("record of %d bytes: appended in place as %x, want %x", n, got[:12], want[:12])
		}
	}
}

// TestMalformedFrameFailsTheCall writes a bad frame on a raw connection to
// a serving Server, then calls over the same connection: the server must
// hang up, so the call fails instead of blocking.
func TestMalformedFrameFailsTheCall(t *testing.T) {
	valid := appendRequest(nil, &Request{Op: OpGet, Table: "t", Key: []byte("k")})
	frame := func(payload []byte) []byte {
		f, _ := closeFrame(append(openFrame(nil), payload...))
		return f
	}
	for _, tc := range []struct {
		name  string
		frame []byte
	}{
		{"truncated", frame(valid[:len(valid)-1])},
		{"over-long length", []byte{0xff, 0xff, 0xff, 0xff}},
		{"trailing bytes", frame(slices.Concat(valid, []byte{0}))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := NewServer(0)
			conn, serverEnd := net.Pipe()
			go srv.Serve(serverEnd)
			defer conn.Close()
			c := NewClient(conn)
			called := make(chan error, 1)
			go func() {
				conn.Write(tc.frame) // a server that hangs up at once fails this write
				_, err := c.Get(0, "t", types.Key("k"))
				called <- err
			}()
			select {
			case err := <-called:
				if err == nil {
					t.Fatal("the call after a malformed frame succeeded")
				}
			case <-time.After(5 * time.Second):
				t.Fatal("the call after a malformed frame is still blocked after 5s")
			}
		})
	}
}

// TestMalformedResponseDropsTheConnection answers a call with a payload
// that has trailing bytes: the call fails, and so does the next one, at
// once, instead of reading from a stream at an unknown offset.
func TestMalformedResponseDropsTheConnection(t *testing.T) {
	conn, serverEnd := net.Pipe()
	defer conn.Close()
	go func() {
		if _, err := readFrame(bufio.NewReader(serverEnd), nil); err != nil {
			return
		}
		reply, _ := closeFrame(append(appendResponse(openFrame(nil), &Response{}), 0))
		serverEnd.Write(reply)
	}()
	c := NewClient(conn)
	if err := c.Prepare(7); err == nil {
		t.Fatal("a response with trailing bytes was accepted")
	}
	if err := c.Prepare(7); err == nil {
		t.Fatal("a call after a malformed response succeeded")
	}
}

// readCounter is a net.Conn that counts the Read calls it serves.
type readCounter struct {
	net.Conn
	reads atomic.Int64
}

func (c *readCounter) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.reads.Add(1)
	return n, err
}

// TestFrameIsOneRead checks that each end reads a frame, length prefix and
// payload together, in one call on its connection: a round trip is one
// Read on each side, a 100-entry scan batch included.
func TestFrameIsOneRead(t *testing.T) {
	clientEnd, serverEnd := net.Pipe()
	cc, sc := &readCounter{Conn: clientEnd}, &readCounter{Conn: serverEnd}
	go NewServer(0).Serve(sc)
	c := NewClient(cc)
	defer c.Close()
	calls := []func() error{
		func() error { return c.CreateTable("t") },
		func() error { _, err := c.Put("t", types.Key("k"), rec(types.Int(1))); return err },
		func() error { _, err := c.Get(0, "t", types.Key("k")); return err },
	}
	for i := 0; i < 100; i++ {
		calls = append(calls, func() error { _, err := c.StagePut(7, "t", nil, rec(types.Int(int64(i)))); return err })
	}
	calls = append(calls, func() error {
		batch, err := c.ScanBatch(7, "t", nil, nil, 100)
		if err == nil && len(batch) != 100 {
			t.Fatalf("batch of %d entries, want 100", len(batch))
		}
		return err
	})
	for i, call := range calls {
		if err := call(); err != nil {
			t.Fatal(err)
		}
		if cr, sr := cc.reads.Load(), sc.reads.Load(); cr != int64(i+1) || sr != int64(i+1) {
			t.Fatalf("after %d round trips: %d reads by the client, %d by the server", i+1, cr, sr)
		}
	}
}

// BenchmarkRoundTrip is one uncontended Get over Dial: encode, one frame
// each way over net.Pipe, decode, and the server's lookup.
func BenchmarkRoundTrip(b *testing.B) {
	c := Dial(NewServer(0))
	defer c.Close()
	key := types.Key("k")
	if err := c.CreateTable("t"); err != nil {
		b.Fatal(err)
	}
	if _, err := c.Put("t", key, rec(types.Int(1), types.Str("payload"))); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := c.Get(0, "t", key)
		if err != nil {
			b.Fatal(err)
		}
		benchRec = got
	}
}

var benchRec types.Record

// TestCallAllocations pins allocations per round trip, the server
// goroutine's included: a response aliases one payload read for it, and
// a scan batch's allocations do not grow with its entries.
func TestCallAllocations(t *testing.T) {
	_, c := client(t, 0)
	if err := c.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	r := rec(types.Int(1), types.Str("payload"))
	for i := 0; i < 200; i++ {
		if _, err := c.Put("t", nil, r); err != nil {
			t.Fatal(err)
		}
	}
	key := types.Key{0, 0, 0, 0, 0, 0, 0, 1}
	allocs := func(call func() error) float64 {
		return testing.AllocsPerRun(200, func() {
			if err := call(); err != nil {
				t.Fatal(err)
			}
		})
	}
	scan := func(limit int) func() error {
		return func() error {
			batch, err := c.ScanBatch(0, "t", nil, nil, limit)
			if err == nil && len(batch) != limit {
				t.Fatalf("batch of %d entries, want %d", len(batch), limit)
			}
			return err
		}
	}
	get := allocs(func() error { _, err := c.Get(0, "t", key); return err })
	prepare := allocs(func() error { return c.Prepare(9) })
	stage := allocs(func() error { _, err := c.StagePut(9, "t", key, r); return err })
	scan10, scan100 := allocs(scan(10)), allocs(scan(100))
	t.Logf("allocs per call: Get %.0f, Prepare %.0f, StagePut %.0f, ScanBatch(10) %.0f, ScanBatch(100) %.0f",
		get, prepare, stage, scan10, scan100)
	for _, pin := range []struct {
		call  string
		got   float64
		bound float64
	}{
		{"Get", get, 6},
		{"Prepare", prepare, 4},
		{"StagePut", stage, 9},
		{"ScanBatch(100)", scan100, 16},
		{"ScanBatch(100) over ScanBatch(10)", scan100 - scan10, 2},
	} {
		if pin.got > pin.bound {
			t.Errorf("%s: %.0f allocations, want at most %.0f", pin.call, pin.got, pin.bound)
		}
	}
}

// FuzzDecodeRequest holds the request decoder to "reject, never panic":
// what it accepts re-encodes to identical bytes.
func FuzzDecodeRequest(f *testing.F) {
	for _, req := range sampleRequests() {
		f.Add(appendRequest(nil, &req))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		var req Request
		if decodeRequest(payload, &req) != nil {
			return
		}
		if again := appendRequest(nil, &req); !bytes.Equal(again, payload) {
			t.Fatalf("accepted %x re-encodes as %x", payload, again)
		}
	})
}

// FuzzDecodeResponse holds the response decoder to "reject, never panic":
// what it accepts re-encodes to identical bytes.
func FuzzDecodeResponse(f *testing.F) {
	for _, resp := range sampleResponses() {
		f.Add(appendResponse(nil, &resp))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		var resp Response
		if decodeResponse(payload, &resp) != nil {
			return
		}
		if again := appendResponse(nil, &resp); !bytes.Equal(again, payload) {
			t.Fatalf("accepted %x re-encodes as %x", payload, again)
		}
	})
}
