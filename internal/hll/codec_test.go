package hll

import (
	"bytes"
	"testing"
)

func TestSketchRoundTrip(t *testing.T) {
	s := MustNew(8)
	for i := 0; i < 10000; i++ {
		s.Add(uint64(i))
	}
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got Sketch
	if err := got.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if got.Precision() != 8 {
		t.Fatalf("precision %d after round trip", got.Precision())
	}
	if got.Estimate() != s.Estimate() {
		t.Fatal("estimate changed across round trip")
	}
}

func TestUnmarshalRejectsBadInput(t *testing.T) {
	var s Sketch
	if err := s.UnmarshalBinary(nil); err == nil {
		t.Error("nil accepted")
	}
	if err := s.UnmarshalBinary([]byte{'H', 'L', 'L', '1', 3}); err == nil {
		t.Error("precision below minimum accepted")
	}
	good, err := MustNew(4).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.UnmarshalBinary(good[:len(good)-1]); err == nil {
		t.Error("truncated registers accepted")
	}
	// A register holding an impossible rank is rejected, and the
	// receiver keeps what it held.
	held := MustNew(5)
	held.Add(1)
	before, _ := held.MarshalBinary()
	for _, r := range []byte{62, 128, 255} {
		bad := append([]byte(nil), good...)
		bad[len(bad)-1] = r
		if err := held.UnmarshalBinary(bad); err == nil {
			t.Errorf("impossible register %d accepted", r)
		}
		if after, _ := held.MarshalBinary(); !bytes.Equal(after, before) {
			t.Fatalf("rejected decode of rank %d changed the receiver", r)
		}
	}
	atCap := append([]byte(nil), good...)
	atCap[len(atCap)-1] = 61
	if err := s.UnmarshalBinary(atCap); err != nil {
		t.Errorf("rank at the cap rejected: %v", err)
	}
}
