package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"ipin/internal/graph"
	"ipin/internal/vhll"
)

// Persistence for computed summaries: the expensive one-pass computation
// can be run once (cmd/irs -save) and the resulting state reloaded to
// serve oracle queries without touching the interaction log again
// (cmd/irs -load, examples/oracleserver).
//
// Stream layout (all integers varint/uvarint, little-endian inside):
//
//	magic "IRX1" | kind byte ('E' exact, 'A' approx) | omega varint
//	| numNodes uvarint | per-node payload
//
// Exact per-node payload: uvarint entry count, then (uvarint node,
// zigzag-varint time delta) pairs sorted by node. Approx per-node
// payload: uvarint sketch length (0 = absent) followed by the vhll
// binary encoding.

var irsMagic = [4]byte{'I', 'R', 'X', '1'}

const (
	kindExact  = 'E'
	kindApprox = 'A'
)

// WriteTo serializes exact summaries.
func (s *ExactSummaries) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: bufio.NewWriter(w)}
	if err := writeHeader(cw, kindExact, s.Omega, len(s.Phi)); err != nil {
		return cw.n, err
	}
	var tmp [binary.MaxVarintLen64]byte
	for _, phi := range s.Phi {
		n := binary.PutUvarint(tmp[:], uint64(len(phi)))
		if _, err := cw.Write(tmp[:n]); err != nil {
			return cw.n, err
		}
		// Sort by node for a canonical encoding.
		nodes := make([]graph.NodeID, 0, len(phi))
		for v := range phi {
			nodes = append(nodes, v)
		}
		sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
		prevT := int64(0)
		for _, v := range nodes {
			n = binary.PutUvarint(tmp[:], uint64(v))
			if _, err := cw.Write(tmp[:n]); err != nil {
				return cw.n, err
			}
			t := int64(phi[v])
			n = binary.PutVarint(tmp[:], t-prevT)
			if _, err := cw.Write(tmp[:n]); err != nil {
				return cw.n, err
			}
			prevT = t
		}
	}
	return cw.n, cw.w.(*bufio.Writer).Flush()
}

// ReadExactSummaries deserializes exact summaries.
func ReadExactSummaries(r io.Reader) (*ExactSummaries, error) {
	br := bufio.NewReader(r)
	omega, numNodes, err := readHeader(br, kindExact)
	if err != nil {
		return nil, err
	}
	// Grow the table as payloads actually decode instead of trusting the
	// header: every node costs at least one input byte, so a hostile
	// numNodes cannot demand allocations the input never backs.
	s := &ExactSummaries{Omega: omega, Phi: make([]map[graph.NodeID]graph.Time, 0, allocHint(numNodes))}
	for u := 0; u < numNodes; u++ {
		count, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("core: node %d entry count: %v", u, err)
		}
		if count == 0 {
			s.Phi = append(s.Phi, nil)
			continue
		}
		// Each entry takes >= 2 input bytes; a larger count cannot decode.
		phi := make(map[graph.NodeID]graph.Time, allocHint(int(min(count, uint64(numNodes)))))
		prevT := int64(0)
		for j := uint64(0); j < count; j++ {
			v, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, fmt.Errorf("core: node %d entry %d: %v", u, j, err)
			}
			if v >= uint64(numNodes) {
				return nil, fmt.Errorf("core: node %d references out-of-range node %d", u, v)
			}
			delta, err := binary.ReadVarint(br)
			if err != nil {
				return nil, fmt.Errorf("core: node %d entry %d time: %v", u, j, err)
			}
			prevT += delta
			phi[graph.NodeID(v)] = graph.Time(prevT)
		}
		if uint64(len(phi)) != count {
			return nil, fmt.Errorf("core: node %d has duplicate entries", u)
		}
		s.Phi = append(s.Phi, phi)
	}
	return s, nil
}

// WriteTo serializes approximate summaries.
func (s *ApproxSummaries) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: bufio.NewWriter(w)}
	if err := writeHeader(cw, kindApprox, s.Omega, len(s.Sketches)); err != nil {
		return cw.n, err
	}
	// One payload buffer serves every sketch: encoding allocates only
	// while it grows to the largest payload.
	var tmp [binary.MaxVarintLen64]byte
	var payload []byte
	for u, sk := range s.Sketches {
		if sk == nil {
			if _, err := cw.Write([]byte{0}); err != nil {
				return cw.n, err
			}
			continue
		}
		var err error
		if payload, err = sk.AppendBinary(payload[:0]); err != nil {
			return cw.n, fmt.Errorf("core: sketch %d: %v", u, err)
		}
		n := binary.PutUvarint(tmp[:], uint64(len(payload)))
		if _, err := cw.Write(tmp[:n]); err != nil {
			return cw.n, err
		}
		if _, err := cw.Write(payload); err != nil {
			return cw.n, err
		}
	}
	return cw.n, cw.w.(*bufio.Writer).Flush()
}

// ReadApproxSummaries deserializes approximate summaries.
func ReadApproxSummaries(r io.Reader) (*ApproxSummaries, error) {
	br := bufio.NewReader(r)
	omega, numNodes, err := readHeader(br, kindApprox)
	if err != nil {
		return nil, err
	}
	// Same lazy-growth discipline as the exact reader: neither the node
	// table nor a sketch payload is allocated beyond what the input
	// actually delivers.
	s := &ApproxSummaries{Omega: omega, Sketches: make([]*vhll.Sketch, 0, allocHint(numNodes))}
	for u := 0; u < numNodes; u++ {
		size, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("core: sketch %d size: %v", u, err)
		}
		if size == 0 {
			s.Sketches = append(s.Sketches, nil)
			continue
		}
		if size > 1<<30 {
			return nil, fmt.Errorf("core: sketch %d size %d implausible", u, size)
		}
		// CopyN grows the buffer only as bytes arrive, so a huge declared
		// size over a short input fails without the up-front allocation.
		var pbuf bytes.Buffer
		if _, err := io.CopyN(&pbuf, br, int64(size)); err != nil {
			return nil, fmt.Errorf("core: sketch %d payload: %v", u, err)
		}
		payload := pbuf.Bytes()
		sk := &vhll.Sketch{}
		if err := sk.UnmarshalBinary(payload); err != nil {
			return nil, fmt.Errorf("core: sketch %d: %v", u, err)
		}
		if s.Precision == 0 {
			s.Precision = sk.Precision()
		} else if sk.Precision() != s.Precision {
			return nil, fmt.Errorf("core: sketch %d precision %d != %d", u, sk.Precision(), s.Precision)
		}
		s.Sketches = append(s.Sketches, sk)
	}
	if s.Precision == 0 {
		// Every sketch was empty; any valid precision serves.
		s.Precision = DefaultPrecision
	}
	return s, nil
}

// ReadSummaries reads an IRX1 stream of either kind, dispatching on the
// kind byte: exactly one of the returned summary sets is non-nil. It is
// the loader behind snapshot files whose kind is not known up front
// (internal/serve, oracleserver -snapshot).
func ReadSummaries(r io.Reader) (*ExactSummaries, *ApproxSummaries, error) {
	br := bufio.NewReader(r)
	head, err := br.Peek(5)
	if err != nil {
		return nil, nil, fmt.Errorf("core: header: %v", err)
	}
	if string(head[:4]) != string(irsMagic[:]) {
		return nil, nil, fmt.Errorf("core: bad magic")
	}
	switch head[4] {
	case kindExact:
		s, err := ReadExactSummaries(br)
		return s, nil, err
	case kindApprox:
		s, err := ReadApproxSummaries(br)
		return nil, s, err
	default:
		return nil, nil, fmt.Errorf("core: unknown summary kind %q", head[4])
	}
}

func writeHeader(w io.Writer, kind byte, omega int64, numNodes int) error {
	if _, err := w.Write(irsMagic[:]); err != nil {
		return err
	}
	if _, err := w.Write([]byte{kind}); err != nil {
		return err
	}
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutVarint(tmp[:], omega)
	if _, err := w.Write(tmp[:n]); err != nil {
		return err
	}
	n = binary.PutUvarint(tmp[:], uint64(numNodes))
	_, err := w.Write(tmp[:n])
	return err
}

func readHeader(r *bufio.Reader, wantKind byte) (omega int64, numNodes int, err error) {
	var magic [5]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return 0, 0, fmt.Errorf("core: header: %v", err)
	}
	if string(magic[:4]) != string(irsMagic[:]) {
		return 0, 0, fmt.Errorf("core: bad magic")
	}
	if magic[4] != wantKind {
		return 0, 0, fmt.Errorf("core: summary kind %q, want %q", magic[4], wantKind)
	}
	omega, err = binary.ReadVarint(r)
	if err != nil {
		return 0, 0, fmt.Errorf("core: omega: %v", err)
	}
	nn, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, 0, fmt.Errorf("core: node count: %v", err)
	}
	if nn > 1<<31 {
		return 0, 0, fmt.Errorf("core: node count %d implausible", nn)
	}
	return omega, int(nn), nil
}

// allocHint clamps a header-declared element count to a safe initial
// allocation; the container grows past it only as input actually
// decodes. 64Ki entries keeps the worst pre-input allocation around a
// megabyte.
func allocHint(n int) int {
	const maxHint = 1 << 16
	if n < 0 {
		return 0
	}
	if n > maxHint {
		return maxHint
	}
	return n
}

// countingWriter tracks bytes written for the io.WriterTo contract.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
