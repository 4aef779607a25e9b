package vhll

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"ipin/internal/hll"
)

// Binary format: 4-byte magic "VHL1", 1-byte precision, then per cell a
// uvarint entry count followed by the entries as (zigzag-varint timestamp
// delta, rank byte) pairs. Timestamps within a cell ascend, so deltas
// against the previous entry compress well.
//
// The encoder walks populated cells in cell order — a sorted copy of a
// sparse sketch's index, the slot map of a dense one — and writes each
// run of empty cells (a zero count each) as one append, so the bytes
// depend only on per-cell staircase CONTENT: index mode, first-touch
// region order, capacities and garbage are invisible, which is what keeps
// the format bit-identical across layout changes.
var vhllMagic = [4]byte{'V', 'H', 'L', '1'}

// MarshalBinary implements encoding.BinaryMarshaler.
func (s *Sketch) MarshalBinary() ([]byte, error) {
	return s.AppendBinary(make([]byte, 0, len(vhllMagic)+1+s.NumCells()+4*s.live))
}

// AppendBinary appends the MarshalBinary encoding of s to b and returns
// the extended buffer (encoding.BinaryAppender). Encoding many sketches
// into one reused buffer allocates nothing once the buffer has grown.
func (s *Sketch) AppendBinary(b []byte) ([]byte, error) {
	b = append(b, vhllMagic[:]...)
	b = append(b, s.precision)
	next := 0 // first cell not yet written
	if s.slot == nil {
		// The sparse index is in first-touch order: insertion-sort its at
		// most denseAbove (cell, index) pairs on the stack.
		var order [denseAbove]uint64
		for k, cell := range s.occupied {
			v := uint64(cell)<<32 | uint64(k)
			j := k
			for ; j > 0 && order[j-1] > v; j-- {
				order[j] = order[j-1]
			}
			order[j] = v
		}
		for _, v := range order[:len(s.occupied)] {
			cell := int(v >> 32)
			b = append(b, make([]byte, cell-next)...)
			b = appendCell(b, s.cellEntries(int(uint32(v))))
			next = cell + 1
		}
	} else {
		for cell, si := range s.slot {
			if si != 0 {
				b = append(b, make([]byte, cell-next)...)
				b = appendCell(b, s.cellEntries(int(si-1)))
				next = cell + 1
			}
		}
	}
	return append(b, make([]byte, s.NumCells()-next)...), nil
}

// appendCell appends one populated cell: its count, then its entries.
func appendCell(b []byte, list []Entry) []byte {
	b = binary.AppendUvarint(b, uint64(len(list)))
	prev := int64(0)
	for _, e := range list {
		b = binary.AppendVarint(b, e.At-prev)
		b = append(b, e.Rank)
		prev = e.At
	}
	return b
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. The decoded
// sketch is verified against the staircase invariant, and every entry
// rank against [1, 65−p], the ranks hll.Split produces, so corrupted or
// adversarial input is rejected rather than silently accepted. The cell
// index is built as cells are read (with the slot map once they outnumber
// the switch point); cell regions are tight (capacity = length), and
// later inserts regrow them on demand.
func (s *Sketch) UnmarshalBinary(data []byte) error {
	if len(data) < 5 || !bytes.Equal(data[:4], vhllMagic[:]) {
		return fmt.Errorf("vhll: bad magic")
	}
	p := int(data[4])
	if p < hll.MinPrecision || p > hll.MaxPrecision {
		return fmt.Errorf("vhll: bad precision %d", p)
	}
	r := bytes.NewReader(data[5:])
	decoded := &Sketch{precision: uint8(p)}
	for i := 0; i < 1<<p; i++ {
		count, err := binary.ReadUvarint(r)
		if err != nil {
			return fmt.Errorf("vhll: cell %d count: %v", i, err)
		}
		// Each entry consumes at least 2 bytes (varint delta + rank), so a
		// larger count is structurally impossible and would only inflate
		// the allocation below.
		if count > uint64(r.Len())/2 {
			return fmt.Errorf("vhll: cell %d count %d exceeds remaining input", i, count)
		}
		// Ranks are strictly ascending uint8s, so no valid cell can exceed
		// maxCellEntries; reject before allocating rather than after via
		// the invariant check.
		if count > maxCellEntries {
			return fmt.Errorf("vhll: cell %d count %d exceeds max staircase length %d", i, count, maxCellEntries)
		}
		if count == 0 {
			continue
		}
		off := len(decoded.arena)
		decoded.arena = append(decoded.arena, make([]Entry, count)...)
		list := decoded.arena[off:]
		prev := int64(0)
		for j := range list {
			delta, err := binary.ReadVarint(r)
			if err != nil {
				return fmt.Errorf("vhll: cell %d entry %d time: %v", i, j, err)
			}
			rank, err := r.ReadByte()
			if err != nil {
				return fmt.Errorf("vhll: cell %d entry %d rank: %v", i, j, err)
			}
			// hll.Split yields ranks in [1, 65−p]; the register kernel
			// that collapses into relies on every rank staying below 128.
			if rank < 1 || int(rank) > 65-p {
				return fmt.Errorf("vhll: cell %d entry %d rank %d outside [1,%d]", i, j, rank, 65-p)
			}
			prev += delta
			list[j] = Entry{At: prev, Rank: rank}
		}
		decoded.link(uint32(i), region{off: uint32(off), n: uint16(count), c: uint16(count)})
		decoded.live += int(count)
	}
	if r.Len() != 0 {
		return fmt.Errorf("vhll: %d trailing bytes", r.Len())
	}
	if err := decoded.CheckInvariant(); err != nil {
		return fmt.Errorf("vhll: corrupt payload: %v", err)
	}
	*s = *decoded
	return nil
}
