package main

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/tebaldi"
)

func u64s(vals ...uint64) []byte {
	b := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(b[i*8:], v)
	}
	return b
}

func TestU64At(t *testing.T) {
	row := u64s(7, 1<<40, ^uint64(0))
	for i, want := range []uint64{7, 1 << 40, ^uint64(0), 0} {
		if got := u64At(row, i); got != want {
			t.Errorf("u64At(%d) = %d, want %d", i, got, want)
		}
	}
}

// The seat-conservation check passes after a real run and fails when a
// flight's seat count disagrees with its live reservations.
func TestCheckSeats(t *testing.T) {
	w, err := openSEATS(dbOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer w.db.Close()
	c := &inProcClient{db: w.db, inputs: rand.New(rand.NewSource(1)), backoff: rand.New(rand.NewSource(2))}
	for i := 0; i < 2000; i++ {
		if err := c.run(w.next(c.inputs)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.check(); err != nil {
		t.Fatalf("check after a run: %v", err)
	}
	// One seat fewer left than the reservations account for.
	flight := tebaldi.KeyOf("flight", 3)
	row := w.db.ReadCommitted(flight)
	w.db.Load(flight, u64s(u64At(row, 0)-1, u64At(row, 1)))
	if err := w.check(); err == nil || !strings.Contains(err.Error(), "flight 3") {
		t.Fatalf("check of a flight with a seat taken and no reservation: %v", err)
	}
}

func TestCheckRecovered(t *testing.T) {
	db, err := tebaldi.Open(dbOptions(), kvSpecs(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	want := make([][]byte, kvKeys)
	db.Load(tebaldi.K("kv", kvRows[5]), []byte("v"))
	want[5] = []byte("v")
	if err := checkRecovered(db, want, 0, nil); err != nil {
		t.Fatalf("matching state: %v", err)
	}
	want[6] = []byte("lost")
	if err := checkRecovered(db, want, 0, nil); err == nil || !strings.Contains(err.Error(), "k6") {
		t.Fatalf("lost key: %v", err)
	}
	want[6] = nil
	if err := checkRecovered(db, want, 1, nil); err == nil {
		t.Fatal("protocol errors accepted")
	}
	if err := checkRecovered(db, want, 0, errors.New("disk full")); err == nil {
		t.Fatal("checkpoint error accepted")
	}
}
