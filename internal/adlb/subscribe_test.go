package adlb

import (
	"fmt"
	"strings"
	"testing"
)

// createOn allocates a datum from the calling client's home server, so
// it is owned there, and stores it (closing it) when stored is set.
func createOn(cl *Client, stored bool) (int64, error) {
	id, err := cl.Unique()
	if err != nil {
		return 0, err
	}
	if err := cl.Create(id, TypeInteger); err != nil {
		return 0, err
	}
	if stored {
		if err := cl.Store(id, IntValue(id)); err != nil {
			return 0, err
		}
	}
	return id, nil
}

// One Subscribe call over ids owned by two servers, mixing closed and
// open ids, answers one flag per id in request order, and the open ids
// later notify exactly once each.
func TestSubscribeBatchAcrossServers(t *testing.T) {
	remote := make(chan [2]int64, 1) // ids owned by server 1: closed, open
	storeRemote := make(chan struct{})
	st := runWorld(t, 6, 2, func(cl *Client) error {
		// clients 0,1 -> server idx 0; clients 2,3 -> server idx 1.
		switch cl.Rank() {
		case 2:
			closedID, err := createOn(cl, true)
			if err != nil {
				return err
			}
			openID, err := createOn(cl, false)
			if err != nil {
				return err
			}
			remote <- [2]int64{closedID, openID}
			<-storeRemote
			if err := cl.Store(openID, IntValue(2)); err != nil {
				return err
			}
		case 0:
			closedLocal, err := createOn(cl, true)
			if err != nil {
				return err
			}
			openLocal, err := createOn(cl, false)
			if err != nil {
				return err
			}
			r := <-remote
			if cl.Layout().OwnerOf(r[0]) == cl.Layout().OwnerOf(closedLocal) {
				return fmt.Errorf("test setup: ids %d and %d share an owner", r[0], closedLocal)
			}
			ids := []int64{r[1], closedLocal, r[0], openLocal, closedLocal}
			want := []bool{false, true, true, false, true}
			closed, err := cl.Subscribe(ids, cl.Rank())
			if err != nil {
				return err
			}
			if fmt.Sprint(closed) != fmt.Sprint(want) {
				return fmt.Errorf("closed flags %v for ids %v, want %v", closed, ids, want)
			}
			close(storeRemote)
			if err := cl.Store(openLocal, IntValue(1)); err != nil {
				return err
			}
			notified := map[int64]int{}
			for len(notified) < 2 {
				p, ok, err := cl.Get(typeControl)
				if err != nil {
					return err
				}
				if !ok {
					return fmt.Errorf("shutdown after notifications %v", notified)
				}
				id, isNote := DecodeNotification(p)
				if !isNote {
					return fmt.Errorf("unexpected work %q", p)
				}
				notified[id]++
			}
			if notified[r[1]] != 1 || notified[openLocal] != 1 {
				return fmt.Errorf("notifications %v, want one each for %d and %d", notified, r[1], openLocal)
			}
		}
		return drainShutdown(cl)
	})
	if st.Notifications != 2 {
		t.Fatalf("servers sent %d notifications, want 2", st.Notifications)
	}
}

// An unknown id fails the whole request: no subscriber is registered on
// the known ids in it, so closing them later notifies nobody.
func TestSubscribeUnknownIDRegistersNothing(t *testing.T) {
	st := runWorld(t, 2, 1, func(cl *Client) error {
		open, err := createOn(cl, false)
		if err != nil {
			return err
		}
		unknown, err := cl.Unique() // allocated, never created
		if err != nil {
			return err
		}
		_, err = cl.Subscribe([]int64{open, unknown}, cl.Rank())
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("no such id %d", unknown)) {
			return fmt.Errorf("subscribe with unknown id: err = %v", err)
		}
		if err := cl.Store(open, IntValue(1)); err != nil {
			return err
		}
		_, ok, err := cl.Get(typeControl)
		if err != nil {
			return err
		}
		if ok {
			return fmt.Errorf("notification delivered after a failed subscribe")
		}
		return nil
	})
	if st.Notifications != 0 {
		t.Fatalf("servers sent %d notifications, want 0", st.Notifications)
	}
}
