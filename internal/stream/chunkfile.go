package stream

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"

	"ipin/internal/graph"
	"ipin/internal/vhll"
)

// Chunk sidecars: the durable form of sealed chunks, what makes recovery
// cost proportional to the WAL suffix instead of the whole log. Every
// time the compactor runs, it first persists each newly sealed chunk —
// its edges AND its block-local reverse-scan sketches — as one sidecar
// file, so a restart can rebuild the incremental state with
// AppendSealedChunk instead of replaying and rescanning the full WAL.
// Once a chunk batch is durable (files written, directory fsynced), the
// WAL segments it covers are dead weight and DeleteCovered reclaims
// them.
//
// Layout (normative spec in DESIGN.md): one file per sealed chunk,
// chunk-%08d.blk, numbered by chunk index from zero. A file starts with
// the 8-byte header "ICHK0001" and holds exactly one record framed like
// a WAL record:
//
//	uint32 LE payload length | uint32 LE CRC-32C of payload | payload
//
// The payload is: uvarint chunk index (must match the file name),
// uvarint omega, uvarint precision, uvarint node range at seal time,
// uvarint edge-block length followed by the edges in WAL record
// encoding (uvarint count, per edge uvarint src/dst, varint absolute
// first timestamp then uvarint deltas), uvarint populated-sketch count,
// then per populated node in ascending order: uvarint node id, uvarint
// sketch length, and the sketch in vhll VHL1 encoding.
//
// Crash safety: files are written tmp + fsync + rename, so a sidecar
// that EXISTS under its final name is complete — any content damage is
// real corruption and fails recovery. Renames can still hit the
// directory out of order before the batch's dir fsync, so recovery
// loads only the contiguous prefix chunk-0..chunk-k and deletes any
// orphan past a gap; the WAL still covers those edges, because segments
// are only deleted after the sidecar batch (and its dir fsync) landed.

// chunkMagic is the sidecar header.
var chunkMagic = [8]byte{'I', 'C', 'H', 'K', '0', '0', '0', '1'}

// chunkFilePattern matches sidecar files inside the state directory.
const chunkFilePattern = "chunk-*.blk"

// chunkFileName renders the sidecar file name of chunk index i.
func chunkFileName(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("chunk-%08d.blk", i))
}

// chunkFileIndex parses the chunk index out of a sidecar file name.
// Width-free %d, not %08d: a scan width caps the digits read, which
// would misparse indices past the zero-padded range.
func chunkFileIndex(name string) (int, error) {
	var i int
	if _, err := fmt.Sscanf(filepath.Base(name), "chunk-%d.blk", &i); err != nil {
		return 0, fmt.Errorf("stream: chunk file name %q: %v", name, err)
	}
	return i, nil
}

// chunkData is one decoded sidecar.
type chunkData struct {
	index     int
	omega     int64
	precision int
	numNodes  int
	edges     []graph.Interaction
	locals    []*vhll.Sketch
}

// encodeChunkPayload renders the sidecar payload for sealed chunk i.
func encodeChunkPayload(i int, omega int64, precision int, edges []graph.Interaction, locals []*vhll.Sketch) ([]byte, error) {
	var tmp [binary.MaxVarintLen64]byte
	put := func(buf []byte, v uint64) []byte {
		n := binary.PutUvarint(tmp[:], v)
		return append(buf, tmp[:n]...)
	}
	buf := make([]byte, 0, 16+9*len(edges))
	buf = put(buf, uint64(i))
	buf = put(buf, uint64(omega))
	buf = put(buf, uint64(precision))
	buf = put(buf, uint64(len(locals)))
	eb := encodeRecord(edges)
	buf = put(buf, uint64(len(eb)))
	buf = append(buf, eb...)
	populated := 0
	for _, sk := range locals {
		if sk != nil {
			populated++
		}
	}
	buf = put(buf, uint64(populated))
	// Sketches encode into one reused buffer (the length prefix must
	// precede the bytes), so the loop allocates only while buf and sb
	// grow.
	var sb []byte
	for u, sk := range locals {
		if sk == nil {
			continue
		}
		var err error
		if sb, err = sk.AppendBinary(sb[:0]); err != nil {
			return nil, fmt.Errorf("stream: chunk %d sketch %d: %w", i, u, err)
		}
		buf = put(buf, uint64(u))
		buf = put(buf, uint64(len(sb)))
		buf = append(buf, sb...)
	}
	return buf, nil
}

// decodeChunkPayload parses one sidecar payload.
func decodeChunkPayload(payload []byte) (*chunkData, error) {
	take := func(what string) (uint64, error) {
		v, n := binary.Uvarint(payload)
		if n <= 0 {
			return 0, fmt.Errorf("bad %s", what)
		}
		payload = payload[n:]
		return v, nil
	}
	idx, err := take("chunk index")
	if err != nil {
		return nil, err
	}
	omega, err := take("omega")
	if err != nil {
		return nil, err
	}
	prec, err := take("precision")
	if err != nil {
		return nil, err
	}
	nodes, err := take("node count")
	if err != nil {
		return nil, err
	}
	if idx > math.MaxInt32 || omega == 0 || omega > math.MaxInt64 || prec > 64 || nodes > math.MaxInt32 {
		return nil, fmt.Errorf("implausible header (index %d, omega %d, precision %d, nodes %d)", idx, omega, prec, nodes)
	}
	elen, err := take("edge block length")
	if err != nil {
		return nil, err
	}
	if elen > uint64(len(payload)) {
		return nil, fmt.Errorf("edge block length %d exceeds payload", elen)
	}
	var edges []graph.Interaction
	lastAt := int64(math.MinInt64)
	if err := decodeRecord(payload[:elen], &edges, &lastAt); err != nil {
		return nil, fmt.Errorf("edge block: %v", err)
	}
	if len(edges) == 0 {
		return nil, fmt.Errorf("empty chunk")
	}
	payload = payload[elen:]
	count, err := take("sketch count")
	if err != nil {
		return nil, err
	}
	if count > nodes {
		return nil, fmt.Errorf("sketch count %d exceeds %d nodes", count, nodes)
	}
	locals := make([]*vhll.Sketch, nodes)
	prev := -1
	for s := uint64(0); s < count; s++ {
		u, err := take("sketch node")
		if err != nil {
			return nil, err
		}
		if u >= nodes || int(u) <= prev {
			return nil, fmt.Errorf("sketch node %d out of order or range", u)
		}
		slen, err := take("sketch length")
		if err != nil {
			return nil, err
		}
		if slen > uint64(len(payload)) {
			return nil, fmt.Errorf("sketch %d length %d exceeds payload", u, slen)
		}
		var sk vhll.Sketch
		if err := sk.UnmarshalBinary(payload[:slen]); err != nil {
			return nil, fmt.Errorf("sketch %d: %v", u, err)
		}
		if sk.Precision() != int(prec) {
			return nil, fmt.Errorf("sketch %d precision %d, header says %d", u, sk.Precision(), prec)
		}
		payload = payload[slen:]
		locals[u] = &sk
		prev = int(u)
	}
	if len(payload) != 0 {
		return nil, fmt.Errorf("%d trailing bytes", len(payload))
	}
	return &chunkData{
		index:     int(idx),
		omega:     int64(omega),
		precision: int(prec),
		numNodes:  int(nodes),
		edges:     edges,
		locals:    locals,
	}, nil
}

// writeChunkFile persists sealed chunk i via tmp + fsync + rename. The
// caller fsyncs the directory once per batch.
func writeChunkFile(dir string, i int, omega int64, precision int, edges []graph.Interaction, locals []*vhll.Sketch, mx *metrics) error {
	payload, err := encodeChunkPayload(i, omega, precision, edges, locals)
	if err != nil {
		return err
	}
	buf := make([]byte, 0, len(chunkMagic)+walFrameBytes+len(payload))
	buf = append(buf, chunkMagic[:]...)
	var frame [walFrameBytes]byte
	binary.LittleEndian.PutUint32(frame[:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(payload, walCRC))
	buf = append(buf, frame[:]...)
	buf = append(buf, payload...)

	path := chunkFileName(dir, i)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	mx.chunkFiles.Inc()
	mx.chunkFileBytes.Add(int64(len(buf)))
	return nil
}

// readChunkFile reads and validates one sidecar; the decoded index must
// match want (the index implied by the file name and load order).
func readChunkFile(name string, want int) (*chunkData, error) {
	data, err := os.ReadFile(name)
	if err != nil {
		return nil, err
	}
	if len(data) < len(chunkMagic)+walFrameBytes {
		return nil, fmt.Errorf("stream: chunk file %s: short header", name)
	}
	if string(data[:len(chunkMagic)]) != string(chunkMagic[:]) {
		return nil, fmt.Errorf("stream: chunk file %s: bad magic", name)
	}
	rest := data[len(chunkMagic):]
	plen := int64(binary.LittleEndian.Uint32(rest))
	sum := binary.LittleEndian.Uint32(rest[4:])
	if plen > maxRecordBytes || int64(len(rest)) != walFrameBytes+plen {
		return nil, fmt.Errorf("stream: chunk file %s: bad length %d for %d-byte file", name, plen, len(data))
	}
	payload := rest[walFrameBytes:]
	if crc32.Checksum(payload, walCRC) != sum {
		return nil, fmt.Errorf("stream: chunk file %s: checksum mismatch", name)
	}
	c, err := decodeChunkPayload(payload)
	if err != nil {
		return nil, fmt.Errorf("stream: chunk file %s: %v", name, err)
	}
	if c.index != want {
		return nil, fmt.Errorf("stream: chunk file %s holds index %d", name, c.index)
	}
	return c, nil
}

// loadChunks reads the contiguous sidecar run chunk-floor..chunk-k from
// dir. floor is the first retained chunk index recorded by the durable
// checkpoint metadata: files BELOW it were retired — their deletion is
// allowed only after that metadata landed, so any still on disk are the
// leftovers of a crash mid-retirement and are deleted here. Files past a
// gap in the index sequence are orphans — renames that landed without
// their batch's dir fsync before a crash — and are deleted (their edges
// are still in the WAL, which is only compacted after a batch is fully
// durable). A sidecar that exists but fails validation is real
// corruption and fails the load: its content was fsynced before the
// rename, so presence implies completeness.
func loadChunks(dir string, floor int) ([]*chunkData, error) {
	names, err := filepath.Glob(filepath.Join(dir, chunkFilePattern))
	if err != nil {
		return nil, err
	}
	byIndex := make(map[int]string, len(names))
	indices := make([]int, 0, len(names))
	removedOrphans := false
	for _, name := range names {
		i, err := chunkFileIndex(name)
		if err != nil {
			return nil, err
		}
		if i < floor {
			if err := os.Remove(name); err != nil && !os.IsNotExist(err) {
				return nil, err
			}
			removedOrphans = true
			continue
		}
		byIndex[i] = name
		indices = append(indices, i)
	}
	sort.Ints(indices)
	var chunks []*chunkData
	for len(chunks) < len(indices) && indices[len(chunks)] == floor+len(chunks) {
		next := floor + len(chunks)
		c, err := readChunkFile(byIndex[next], next)
		if err != nil {
			return nil, err
		}
		chunks = append(chunks, c)
	}
	for _, i := range indices[len(chunks):] {
		if err := os.Remove(byIndex[i]); err != nil && !os.IsNotExist(err) {
			return nil, err
		}
		removedOrphans = true
	}
	// Stray tmp files from an interrupted write are garbage by definition.
	tmps, err := filepath.Glob(filepath.Join(dir, chunkFilePattern+".tmp"))
	if err != nil {
		return nil, err
	}
	for _, name := range tmps {
		if err := os.Remove(name); err != nil && !os.IsNotExist(err) {
			return nil, err
		}
		removedOrphans = true
	}
	if removedOrphans {
		if err := syncDir(dir); err != nil {
			return nil, err
		}
	}
	return chunks, nil
}
