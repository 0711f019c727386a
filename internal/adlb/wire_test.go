package adlb

import (
	"runtime"
	"strings"
	"testing"
)

// The encoder must reject fields whose length cannot be framed in the u32
// prefix instead of silently truncating the length and corrupting every
// field after it. maxFieldBytes is lowered so the regression does not
// need a >4 GiB allocation; the check itself is length-based only.
func TestEncoderRejectsOversizedField(t *testing.T) {
	saved := maxFieldBytes
	maxFieldBytes = 16
	defer func() { maxFieldBytes = saved }()

	t.Run("bytes", func(t *testing.T) {
		e := &encoder{}
		e.bytes(make([]byte, 17))
		if e.err == nil {
			t.Fatal("oversized bytes field accepted")
		}
		if _, err := e.frame(); err == nil {
			t.Fatal("frame() returned a corrupted frame")
		}
	})
	t.Run("str", func(t *testing.T) {
		e := &encoder{}
		e.str(strings.Repeat("x", 17))
		if e.err == nil {
			t.Fatal("oversized string field accepted")
		}
		if _, err := e.frame(); err == nil {
			t.Fatal("frame() returned a corrupted frame")
		}
	})
	t.Run("error-is-sticky", func(t *testing.T) {
		e := &encoder{}
		e.bytes(make([]byte, 17))
		first := e.err
		e.str(strings.Repeat("y", 17))
		if e.err != first {
			t.Fatal("second failure overwrote the first error")
		}
	})
	t.Run("at-limit-ok", func(t *testing.T) {
		e := &encoder{}
		e.bytes(make([]byte, 16))
		e.str(strings.Repeat("x", 16))
		frame, err := e.frame()
		if err != nil {
			t.Fatalf("exact-limit field rejected: %v", err)
		}
		d := &decoder{buf: frame}
		if got := d.bytes(); len(got) != 16 {
			t.Fatalf("bytes round-trip lost data: %d", len(got))
		}
		if got := d.str(); len(got) != 16 {
			t.Fatalf("str round-trip lost data: %d", len(got))
		}
		if err := d.finish("wire test"); err != nil {
			t.Fatal(err)
		}
	})
}

// A fully decoded message must consume its whole frame: trailing bytes
// mean sender and receiver disagree about the layout, and finish() turns
// that from silence into a loud failure.
func TestDecoderRejectsTrailingGarbage(t *testing.T) {
	t.Run("work-item", func(t *testing.T) {
		e := &encoder{}
		encodeWorkItem(e, workItem{Type: 1, Priority: 2, Target: 3, Payload: []byte("job")})
		frame, err := e.frame()
		if err != nil {
			t.Fatal(err)
		}
		d := &decoder{buf: frame}
		if w := decodeWorkItem(d); string(w.Payload) != "job" {
			t.Fatalf("payload = %q", w.Payload)
		}
		if err := d.finish("work item"); err != nil {
			t.Fatalf("clean frame rejected: %v", err)
		}

		d = &decoder{buf: append(append([]byte(nil), frame...), 0xAB)}
		decodeWorkItem(d)
		if err := d.finish("work item"); err == nil {
			t.Fatal("trailing garbage accepted after work item")
		}
	})
	t.Run("value", func(t *testing.T) {
		e := &encoder{}
		encodeValue(e, Value{Type: TypeBlob, Bytes: []byte{1, 2, 3}, Dims: []int{3}, Elem: 2})
		frame, err := e.frame()
		if err != nil {
			t.Fatal(err)
		}
		d := &decoder{buf: frame}
		v := decodeValue(d)
		if err := d.finish("value"); err != nil {
			t.Fatalf("clean frame rejected: %v (value %v)", err, v)
		}

		d = &decoder{buf: append(append([]byte(nil), frame...), 0xCD, 0xEF)}
		decodeValue(d)
		if err := d.finish("value"); err == nil {
			t.Fatal("trailing garbage accepted after value")
		}
	})
	t.Run("truncated-still-fails", func(t *testing.T) {
		e := &encoder{}
		encodeValue(e, Value{Type: TypeString, Bytes: []byte("hello")})
		frame, _ := e.frame()
		d := &decoder{buf: frame[:len(frame)-2]}
		decodeValue(d)
		if err := d.finish("value"); err == nil {
			t.Fatal("truncated frame accepted")
		}
	})
}

// opSubscribe carries a rank, an id count and the ids. A count the frame
// cannot hold is rejected before anything is allocated, and a frame cut
// short fails at its end.
func TestDecodeSubscribeBounds(t *testing.T) {
	frame := func(rank int32, count uint32, ids ...int64) []byte {
		e := &encoder{}
		e.i32(rank)
		e.u32(count)
		for _, id := range ids {
			e.i64(id)
		}
		b, err := e.frame()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	t.Run("clean", func(t *testing.T) {
		d := &decoder{buf: frame(7, 3, 11, -2, 13)}
		rank, ids := decodeSubscribe(d)
		if err := d.finish("subscribe"); err != nil {
			t.Fatal(err)
		}
		if rank != 7 || len(ids) != 3 || ids[0] != 11 || ids[1] != -2 || ids[2] != 13 {
			t.Fatalf("decoded rank %d ids %v", rank, ids)
		}
	})
	t.Run("empty", func(t *testing.T) {
		d := &decoder{buf: frame(1, 0)}
		if _, ids := decodeSubscribe(d); len(ids) != 0 || d.finish("subscribe") != nil {
			t.Fatalf("empty request: ids %v err %v", ids, d.err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		b := frame(1, 3, 11, 12, 13)
		for cut := 1; cut < len(b); cut++ {
			d := &decoder{buf: b[:len(b)-cut]}
			decodeSubscribe(d)
			if err := d.finish("subscribe"); err == nil {
				t.Fatalf("frame cut by %d bytes accepted", cut)
			}
		}
	})
	t.Run("oversized-count", func(t *testing.T) {
		for _, count := range []uint32{3, 1 << 20} {
			b := frame(1, count, 11, 12)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			d := &decoder{buf: b}
			_, ids := decodeSubscribe(d)
			runtime.ReadMemStats(&after)
			if ids != nil || d.err == nil {
				t.Fatalf("count %d over 2 ids: ids %v err %v", count, ids, d.err)
			}
			// Honouring a 1<<20 count would allocate 8 MiB of ids.
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 4096 {
				t.Fatalf("count %d over 2 ids allocated %d bytes", count, alloc)
			}
		}
	})
}

// Opcode byte values are wire format: a hub and a worker process built
// from different commits must agree on them, so removing an op retires
// its value (14 and 15 are reserved) instead of renumbering the rest.
func TestOpcodeValuesAreStable(t *testing.T) {
	ops := []uint8{
		opPut, opGet, opCreate, opStore, opRetrieve, opSubscribe, opInsert,
		opLookup, opEnumerate, opWriteRefcount, opUnique, opExists, opTypeOf,
		opFail, opLeave, opRetrieveChunk, opStoreChunk, opPin,
	}
	want := []uint8{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 16, 17, 18, 19, 20}
	for i := range ops {
		if ops[i] != want[i] {
			t.Errorf("opcode %d has value %d, want %d", i, ops[i], want[i])
		}
	}
}
