package hll

import (
	"bytes"
	"fmt"
)

// Binary format: 4-byte magic "HLL1", 1-byte precision, then the raw
// register array (2^precision bytes). The format is versioned through the
// magic so later revisions can coexist.
var hllMagic = [4]byte{'H', 'L', 'L', '1'}

// MarshalBinary implements encoding.BinaryMarshaler.
func (s *Sketch) MarshalBinary() ([]byte, error) {
	var buf bytes.Buffer
	buf.Grow(5 + len(s.registers))
	buf.Write(hllMagic[:])
	buf.WriteByte(s.precision)
	buf.Write(s.registers)
	return buf.Bytes(), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (s *Sketch) UnmarshalBinary(data []byte) error {
	if len(data) < 5 || !bytes.Equal(data[:4], hllMagic[:]) {
		return fmt.Errorf("hll: bad magic")
	}
	p := int(data[4])
	if p < MinPrecision || p > MaxPrecision {
		return fmt.Errorf("hll: bad precision %d", p)
	}
	want := 1 << p
	if len(data) != 5+want {
		return fmt.Errorf("hll: want %d register bytes, have %d", want, len(data)-5)
	}
	for i, r := range data[5:] {
		if r > maxRank(uint8(p)) {
			return fmt.Errorf("hll: register %d holds impossible rank %d", i, r)
		}
	}
	s.precision = uint8(p)
	s.registers = append([]uint8(nil), data[5:]...)
	return nil
}
