package adlb

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/chunk"
)

// drainClient parks until NO_MORE_WORK so the server can reach
// quiescence and terminate.
func drainClient(cl *Client) error {
	for {
		_, ok, err := cl.Get(typeWork)
		if err != nil || !ok {
			return err
		}
	}
}

// intChunk builds a chunk of integer rows.
func intChunk(vs ...int64) chunk.Chunk {
	var c chunk.Chunk
	for _, v := range vs {
		c.AppendInt(v)
	}
	return c
}

// mixedRow is the value stored for row i of a mixed-kind gather: kinds
// cycle int, float, string, blob, and every value encodes its minting
// rank and row, so a merge that loses request order cannot pass.
func mixedRow(rank, i int) Value {
	tag := int64(rank*1000 + i)
	switch i % 4 {
	case 0:
		return IntValue(tag)
	case 1:
		return FloatValue(float64(tag) + 0.5)
	case 2:
		return StringValue("s" + strconv.FormatInt(tag, 10))
	}
	return Value{Type: TypeBlob, Bytes: []byte("b" + strconv.FormatInt(tag, 10)), Dims: []int{1, i}, Elem: uint8(i % 7)}
}

// storeRows creates and stores mixedRow(rank, i) for i in [0, n) on the
// calling client's home server, returning the ids in row order.
func storeRows(cl *Client, n int) ([]int64, error) {
	ids := make([]int64, n)
	for i := range ids {
		v := mixedRow(cl.Rank(), i)
		id, err := cl.Unique()
		if err != nil {
			return nil, err
		}
		if err := cl.Create(id, v.Type); err != nil {
			return nil, err
		}
		if err := cl.Store(id, v); err != nil {
			return nil, err
		}
		ids[i] = id
	}
	return ids, nil
}

// checkRow compares the reader's current row with the stored value it
// must reproduce bit-exactly, blob dims and element kind included.
func checkRow(r *chunk.Reader, want Value) error {
	kinds := map[DataType]byte{
		TypeInteger: chunk.KindInt, TypeFloat: chunk.KindFloat,
		TypeString: chunk.KindString, TypeBlob: chunk.KindBlob,
	}
	if r.Kind() != kinds[want.Type] {
		return fmt.Errorf("kind %d, want %d (%v)", r.Kind(), kinds[want.Type], want.Type)
	}
	var got []byte
	switch want.Type {
	case TypeInteger, TypeFloat:
		got = r.NumRaw()
	default:
		got = r.Bytes()
	}
	if !bytes.Equal(got, want.Bytes) {
		return fmt.Errorf("bytes %q, want %q", got, want.Bytes)
	}
	if want.Type == TypeBlob {
		m := r.Meta()
		if m.Elem != want.Elem || fmt.Sprint(m.Dims) != fmt.Sprint(want.Dims) {
			return fmt.Errorf("blob meta elem=%d dims=%v, want elem=%d dims=%v", m.Elem, m.Dims, want.Elem, want.Dims)
		}
	}
	return nil
}

// One RetrieveChunk over ids owned by two servers, mixing int, float,
// string and blob rows, returns every row in request order with blob
// dims and element kind intact — the client's row-by-row merge path.
func TestRetrieveChunkAcrossServers(t *testing.T) {
	const n = 32 // rows minted per server
	remote := make(chan []int64, 1)
	runWorld(t, 6, 2, func(cl *Client) error {
		// clients 0,1 -> server idx 0; clients 2,3 -> server idx 1.
		switch cl.Rank() {
		case 3:
			ids, err := storeRows(cl, n)
			if err != nil {
				return err
			}
			remote <- ids
		case 0:
			local, err := storeRows(cl, n)
			if err != nil {
				return err
			}
			far := <-remote
			if cl.Layout().OwnerOf(local[0]) == cl.Layout().OwnerOf(far[0]) {
				return fmt.Errorf("test setup: ids %d and %d share an owner", local[0], far[0])
			}
			var ids []int64
			var want []Value
			for i := 0; i < n; i++ {
				ids = append(ids, far[i], local[i])
				want = append(want, mixedRow(3, i), mixedRow(0, i))
			}
			ck, err := cl.RetrieveChunk(ids)
			if err != nil {
				return err
			}
			if ck.Len() != len(ids) {
				return fmt.Errorf("got %d rows for %d ids", ck.Len(), len(ids))
			}
			r := ck.Reader()
			for i := 0; r.Next(); i++ {
				if err := checkRow(&r, want[i]); err != nil {
					return fmt.Errorf("row %d (id %d): %v", i, ids[i], err)
				}
			}
			// A gather naming a missing id must error, not return junk.
			if _, err := cl.RetrieveChunk([]int64{ids[0], 1 << 40}); err == nil ||
				!strings.Contains(err.Error(), "no such id") {
				return fmt.Errorf("missing id in gather: err = %v", err)
			}
		}
		return drainClient(cl)
	})
}

// A gathered id must have a chunk form: a created but unset datum and a
// container are both rejected by name.
func TestRetrieveChunkRejectsUnsetAndContainer(t *testing.T) {
	runWorld(t, 2, 1, func(cl *Client) error {
		unset, err := cl.Unique()
		if err != nil {
			return err
		}
		if err := cl.Create(unset, TypeInteger); err != nil {
			return err
		}
		c, err := cl.Unique()
		if err != nil {
			return err
		}
		if err := cl.Create(c, TypeContainer); err != nil {
			return err
		}
		if err := cl.WriteRefcount(c, -1); err != nil {
			return err
		}
		for _, tc := range []struct {
			id   int64
			want string
		}{
			{unset, "is unset"},
			{c, "has no chunk form"},
		} {
			if _, err := cl.RetrieveChunk([]int64{tc.id}); err == nil || !strings.Contains(err.Error(), tc.want) {
				return fmt.Errorf("RetrieveChunk(%d): err = %v, want %q", tc.id, err, tc.want)
			}
		}
		return drainClient(cl)
	})
}

func TestStoreChunkPopulatesContainer(t *testing.T) {
	const n = 100
	runWorld(t, 3, 1, func(cl *Client) error {
		if cl.Rank() != 0 {
			return drainClient(cl)
		}
		c, err := cl.Unique()
		if err != nil {
			return err
		}
		if err := cl.Create(c, TypeContainer); err != nil {
			return err
		}
		var rows chunk.Chunk
		for i := 0; i < n; i++ {
			rows.AppendFloat(float64(i) * 0.25)
		}
		if err := cl.StoreChunk(c, rows); err != nil {
			return err
		}
		// The caller still owns the creation write reference.
		if closed, err := cl.Exists(c); err != nil || closed {
			return fmt.Errorf("container closed before refcount drop: %v %v", closed, err)
		}
		if err := cl.WriteRefcount(c, -1); err != nil {
			return err
		}
		if closed, err := cl.Exists(c); err != nil || !closed {
			return fmt.Errorf("container not closed after refcount drop: %v %v", closed, err)
		}
		pairs, err := cl.Enumerate(c)
		if err != nil {
			return err
		}
		if len(pairs) != n {
			return fmt.Errorf("enumerate: %d members, want %d", len(pairs), n)
		}
		ids := make([]int64, n)
		for _, p := range pairs {
			idx, err := strconv.Atoi(p.Subscript)
			if err != nil || idx < 0 || idx >= n {
				return fmt.Errorf("bad subscript %q", p.Subscript)
			}
			ids[idx] = p.Member
		}
		got, err := cl.RetrieveChunk(ids)
		if err != nil {
			return err
		}
		if kind, ok := got.AllKind(); !ok || kind != chunk.KindFloat || got.Len() != n {
			return fmt.Errorf("gathered %d rows, homogeneous float = %v", got.Len(), ok && kind == chunk.KindFloat)
		}
		r := got.Reader()
		for i := 0; r.Next(); i++ {
			if f := r.Float(); f != float64(i)*0.25 {
				return fmt.Errorf("member %d = %v, want %v", i, f, float64(i)*0.25)
			}
		}
		// Storing into a closed container must fail.
		if err := cl.StoreChunk(c, intChunk(1)); err == nil ||
			!strings.Contains(err.Error(), "closed") {
			return fmt.Errorf("store into closed container: err = %v", err)
		}
		return drainClient(cl)
	})
}

func TestStoreChunkIsAllOrNothing(t *testing.T) {
	// A StoreChunk that collides with an existing subscript must leave
	// the container exactly as it was — no partial members.
	runWorld(t, 2, 1, func(cl *Client) error {
		c, err := cl.Unique()
		if err != nil {
			return err
		}
		if err := cl.Create(c, TypeContainer); err != nil {
			return err
		}
		m, err := cl.Unique()
		if err != nil {
			return err
		}
		if err := cl.Create(m, TypeInteger); err != nil {
			return err
		}
		if err := cl.Store(m, IntValue(1)); err != nil {
			return err
		}
		// One member at "2": len(order)=1, so a 3-row chunk targets
		// subscripts 1,2,3 and collides mid-range at "2".
		if err := cl.Insert(c, "2", m); err != nil {
			return err
		}
		err = cl.StoreChunk(c, intChunk(10, 11, 12))
		if err == nil || !strings.Contains(err.Error(), "already has subscript") {
			return fmt.Errorf("colliding StoreChunk: err = %v", err)
		}
		pairs, err := cl.Enumerate(c)
		if err != nil {
			return err
		}
		if len(pairs) != 1 || pairs[0].Subscript != "2" {
			return fmt.Errorf("container mutated by failed StoreChunk: %v", pairs)
		}
		return drainClient(cl)
	})
}

func TestStoreChunkAppendsAfterInserts(t *testing.T) {
	// A chunk store lands after any subscripts already present, so mixed
	// element-wise and bulk construction cannot collide.
	runWorld(t, 2, 1, func(cl *Client) error {
		c, err := cl.Unique()
		if err != nil {
			return err
		}
		if err := cl.Create(c, TypeContainer); err != nil {
			return err
		}
		m, err := cl.Unique()
		if err != nil {
			return err
		}
		if err := cl.Create(m, TypeInteger); err != nil {
			return err
		}
		if err := cl.Store(m, IntValue(7)); err != nil {
			return err
		}
		if err := cl.Insert(c, "0", m); err != nil {
			return err
		}
		if err := cl.StoreChunk(c, intChunk(8, 9)); err != nil {
			return err
		}
		pairs, err := cl.Enumerate(c)
		if err != nil {
			return err
		}
		var subs []string
		for _, p := range pairs {
			subs = append(subs, p.Subscript)
		}
		if strings.Join(subs, ",") != "0,1,2" {
			return fmt.Errorf("subscripts = %v, want 0,1,2", subs)
		}
		return drainClient(cl)
	})
}
