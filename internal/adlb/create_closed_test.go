package adlb

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// A datum created closed behaves exactly like one created and then
// stored: its value is there at once, Subscribe reports it closed
// without registering a subscriber, and a later Store is a
// single-assignment violation. Only the never-stored datum counts as
// unfilled when the server drains.
func TestCreateClosedIsStored(t *testing.T) {
	var ids []int64
	blobVal := Value{Type: TypeBlob, Bytes: []byte{9, 8, 7}, Dims: []int{3, 1}, Elem: 2}
	vals := []Value{IntValue(42), FloatValue(-0.5), StringValue("héllo"), VoidValue(), blobVal}
	st, servers := runWorldServers(t, 2, 1, func(cl *Client) error {
		for _, v := range vals {
			id, err := cl.Unique()
			if err != nil {
				return err
			}
			if err := cl.CreateClosed(id, v); err != nil {
				return fmt.Errorf("create closed %v: %w", v.Type, err)
			}
			ids = append(ids, id)
		}
		for i, id := range ids {
			got, found, err := cl.Retrieve(id)
			if err != nil || !found {
				return fmt.Errorf("retrieve %d: found=%v err=%v", id, found, err)
			}
			if got.Type != vals[i].Type || !bytes.Equal(got.Bytes, vals[i].Bytes) ||
				got.Elem != vals[i].Elem || fmt.Sprint(got.Dims) != fmt.Sprint(vals[i].Dims) {
				return fmt.Errorf("retrieve %d = %+v, want %+v", id, got, vals[i])
			}
			if ok, err := cl.Exists(id); err != nil || !ok {
				return fmt.Errorf("exists %d = %v, %v; want closed", id, ok, err)
			}
		}
		closed, err := cl.Subscribe(ids, cl.Rank())
		if err != nil {
			return err
		}
		for i, c := range closed {
			if !c {
				return fmt.Errorf("subscribe reports id %d open", ids[i])
			}
		}
		err = cl.Store(ids[0], IntValue(43))
		if err == nil || !strings.Contains(err.Error(), "single-assignment violation") {
			return fmt.Errorf("store after create closed: err = %v", err)
		}
		if got, _, _ := cl.Retrieve(ids[0]); !bytes.Equal(got.Bytes, IntValue(42).Bytes) {
			return fmt.Errorf("rejected store changed the value")
		}
		// One datum left unfilled, for the drain gauge.
		if _, err := createOn(cl, false); err != nil {
			return err
		}
		return drainShutdown(cl)
	})
	for _, id := range ids {
		dm := servers[0].store[id]
		if !dm.set || len(dm.subscribers) != 0 {
			t.Errorf("id %d: set=%v subscribers=%v; want set, none", id, dm.set, dm.subscribers)
		}
	}
	if st.Notifications != 0 {
		t.Errorf("servers sent %d notifications, want 0", st.Notifications)
	}
	if st.UnfilledTDs != 1 {
		t.Errorf("UnfilledTDs = %d, want 1 (only the never-stored datum)", st.UnfilledTDs)
	}
}

// A rejected create-closed creates nothing: a value of the wrong type, a
// container with a value, and an id that already exists all fail, and
// the id is left as it was.
func TestCreateClosedRejections(t *testing.T) {
	_, servers := runWorldServers(t, 2, 1, func(cl *Client) error {
		// CreateClosed takes the type from the value, so a mismatched
		// body can only come from another encoder; build one by hand.
		mismatched, err := cl.Unique()
		if err != nil {
			return err
		}
		d, err := cl.rpc(cl.l.OwnerOf(mismatched), func(e *encoder) {
			e.u8(opCreate)
			sv := StringValue("oops")
			encodeCreate(e, mismatched, TypeFloat, &sv)
		})
		if err != nil {
			return err
		}
		_, err = checkStatus(d, "create")
		if err == nil || !strings.Contains(err.Error(), "is float, value is string") {
			return fmt.Errorf("type-mismatched create: err = %v", err)
		}
		if err := d.finish("create response"); err != nil {
			return err
		}

		container, err := cl.Unique()
		if err != nil {
			return err
		}
		err = cl.CreateClosed(container, Value{Type: TypeContainer})
		if err == nil || !strings.Contains(err.Error(), "is a container") {
			return fmt.Errorf("container with a value: err = %v", err)
		}

		dup, err := cl.Unique()
		if err != nil {
			return err
		}
		if err := cl.CreateClosed(dup, IntValue(1)); err != nil {
			return err
		}
		err = cl.CreateClosed(dup, IntValue(2))
		if err == nil || !strings.Contains(err.Error(), "already exists") {
			return fmt.Errorf("duplicate create closed: err = %v", err)
		}
		v, _, err := cl.Retrieve(dup)
		if err != nil {
			return err
		}
		if n, _ := AsInt(v); n != 1 {
			return fmt.Errorf("duplicate create changed the value to %d", n)
		}

		for _, id := range []int64{mismatched, container} {
			if _, found, err := cl.TypeOf(id); err != nil || found {
				return fmt.Errorf("rejected create of %d left a datum (found=%v err=%v)", id, found, err)
			}
		}
		// The rejected ids are still free for a valid create.
		if err := cl.CreateClosed(mismatched, FloatValue(1.5)); err != nil {
			return err
		}
		return drainShutdown(cl)
	})
	if n := len(servers[0].store); n != 2 {
		t.Fatalf("store holds %d data, want 2 (dup and the re-created id)", n)
	}
}

// The value of a create-closed must not alias its request frame: the
// frame goes back to the pool once the create is handled, and traffic of
// the same size then reuses it. The value must read back intact.
func TestCreateClosedSurvivesFramePoolChurn(t *testing.T) {
	fillA := bytes.Repeat([]byte{0xAA}, 4096)
	fillB := bytes.Repeat([]byte{0xBB}, 4096)
	runWorld(t, 2, 1, func(cl *Client) error {
		a, err := cl.Unique()
		if err != nil {
			return err
		}
		if err := cl.CreateClosed(a, BlobValue(fillA)); err != nil {
			return err
		}
		// Same-sized requests draw the create's released frame back out
		// of the pool and overwrite it.
		for i := 0; i < 8; i++ {
			b, err := cl.Unique()
			if err != nil {
				return err
			}
			if err := cl.CreateClosed(b, BlobValue(fillB)); err != nil {
				return err
			}
			if _, _, err := cl.Retrieve(b); err != nil {
				return err
			}
		}
		v, found, err := cl.Retrieve(a)
		if err != nil || !found {
			return fmt.Errorf("retrieve a: found=%v err=%v", found, err)
		}
		if !bytes.Equal(v.Bytes, fillA) {
			return fmt.Errorf("create-closed value corrupted by frame reuse")
		}
		if _, hits, _ := cl.Comm().World().FramePoolStats(); hits == 0 {
			return fmt.Errorf("frame pool recorded no reuse across the calls above")
		}
		return drainClient(cl)
	})
}

// The presence byte of a create body is mandatory: a body in the older
// id+type layout, or with a presence byte other than 0 or 1, is a
// decode error rather than an unset create.
func TestCreateBodyDecode(t *testing.T) {
	iv := IntValue(5)
	for _, tc := range []struct {
		name   string
		build  func(e *encoder)
		ok     bool
		closed bool
	}{
		{"unset", func(e *encoder) { encodeCreate(e, 7, TypeInteger, nil) }, true, false},
		{"closed", func(e *encoder) { encodeCreate(e, 7, TypeInteger, &iv) }, true, true},
		{"old layout", func(e *encoder) { e.i64(7); e.u8(uint8(TypeInteger)) }, false, false},
		{"bad presence", func(e *encoder) { e.i64(7); e.u8(uint8(TypeInteger)); e.u8(2) }, false, false},
		{"missing value", func(e *encoder) { e.i64(7); e.u8(uint8(TypeInteger)); e.u8(1) }, false, false},
	} {
		e := &encoder{}
		tc.build(e)
		d := &decoder{buf: e.buf}
		id, typ, v, closed := decodeCreate(d)
		err := d.finish("create request")
		if (err == nil) != tc.ok {
			t.Errorf("%s: decode err = %v, want ok=%v", tc.name, err, tc.ok)
			continue
		}
		if !tc.ok {
			continue
		}
		if id != 7 || typ != TypeInteger || closed != tc.closed {
			t.Errorf("%s: decoded id=%d typ=%v closed=%v", tc.name, id, typ, closed)
		}
		if closed && !bytes.Equal(v.Bytes, iv.Bytes) {
			t.Errorf("%s: decoded value %v", tc.name, v)
		}
	}
}
