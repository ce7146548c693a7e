package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"time"
)

func int64AsDuration(u uint64) time.Duration { return time.Duration(int64(u)) }

// The trace container (little-endian) is what a trace file holds and what the
// obsv /trace endpoint streams to `adaptivetrace -tail`:
//
//	magic   [4]byte "ADTS"
//	version uint16  (1)
//	frames, each:
//	  shard uint32
//	  start uint64   emit index of the first record
//	  count uint32   records that follow
//	  records count × 38 bytes: at int64, a/b/c uint64, id uint32, kind uint16
//
// A live stream carries one frame per flush of a recorder's ring; a file
// written from a collected Set carries one frame per shard, starting at
// total − retained (past zero when the ring wrapped). Either way a shard's
// frames are contiguous and SetBuilder reassembles them. Records are
// fixed-size so the encoder allocates nothing per record.

var streamMagic = [4]byte{'A', 'D', 'T', 'S'}

const (
	streamVersion    = 1
	streamHeaderSize = 4 + 2 // magic + version
	// frameHeaderSize is shard u32 + start u64 + count u32.
	frameHeaderSize = 4 + 8 + 4
	recordSize      = 8 + 8 + 8 + 8 + 4 + 2
)

// encodeRecord writes r into dst (which must hold recordSize bytes).
func encodeRecord(dst []byte, r *Record) {
	binary.LittleEndian.PutUint64(dst[0:8], uint64(r.At))
	binary.LittleEndian.PutUint64(dst[8:16], r.A)
	binary.LittleEndian.PutUint64(dst[16:24], r.B)
	binary.LittleEndian.PutUint64(dst[24:32], r.C)
	binary.LittleEndian.PutUint32(dst[32:36], r.ID)
	binary.LittleEndian.PutUint16(dst[36:38], uint16(r.Kind))
}

// decodeRecord parses a recordSize-byte buffer written by encodeRecord.
func decodeRecord(src []byte) Record {
	return Record{
		At:   int64AsDuration(binary.LittleEndian.Uint64(src[0:8])),
		A:    binary.LittleEndian.Uint64(src[8:16]),
		B:    binary.LittleEndian.Uint64(src[16:24]),
		C:    binary.LittleEndian.Uint64(src[24:32]),
		ID:   binary.LittleEndian.Uint32(src[32:36]),
		Kind: Kind(binary.LittleEndian.Uint16(src[36:38])),
	}
}

// WriteStreamHeader writes the container's magic and version.
func WriteStreamHeader(w io.Writer) error {
	var hdr [streamHeaderSize]byte
	copy(hdr[0:4], streamMagic[:])
	binary.LittleEndian.PutUint16(hdr[4:6], streamVersion)
	_, err := w.Write(hdr[:])
	return err
}

// FrameSize returns the encoded size of a frame carrying n records; encoders
// use it to pre-size buffers so AppendFrame never regrows.
func FrameSize(n int) int { return frameHeaderSize + n*recordSize }

// AppendFrame serializes one chunk onto dst and returns the extended slice.
func AppendFrame(dst []byte, c *Chunk) []byte {
	var hdr [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(c.Shard))
	binary.LittleEndian.PutUint64(hdr[4:12], c.Start)
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(len(c.Records)))
	dst = append(dst, hdr[:]...)
	var rec [recordSize]byte
	for i := range c.Records {
		encodeRecord(rec[:], &c.Records[i])
		dst = append(dst, rec[:]...)
	}
	return dst
}

// frameHeader is the container's one frame-header decoder: shard, emit index
// of the first record, and the size in bytes of the records that follow.
func frameHeader(b []byte) (c Chunk, body uint64, err error) {
	if len(b) < frameHeaderSize {
		return Chunk{}, 0, fmt.Errorf("trace: short frame header (%d bytes)", len(b))
	}
	c.Shard = int(binary.LittleEndian.Uint32(b[0:4]))
	c.Start = binary.LittleEndian.Uint64(b[4:12])
	return c, uint64(binary.LittleEndian.Uint32(b[12:16])) * recordSize, nil
}

// DecodeFrame parses one frame from the front of b (no stream header) and
// returns the chunk plus the remaining bytes. The record count in the header
// is checked against the bytes that are actually there before anything is
// allocated for it, so a forged count costs nothing. The file reader and the
// HTTP tail (ReadSet) and the in-process tail all decode with it.
func DecodeFrame(b []byte) (Chunk, []byte, error) {
	c, body, err := frameHeader(b)
	if err != nil {
		return Chunk{}, b, err
	}
	rest := b[frameHeaderSize:]
	if uint64(len(rest)) < body {
		return Chunk{}, b, fmt.Errorf("trace: frame truncated: %d bytes for %d records", len(rest), body/recordSize)
	}
	c.Records = make([]Record, body/recordSize)
	for i := range c.Records {
		c.Records[i] = decodeRecord(rest[i*recordSize:])
	}
	return c, rest[body:], nil
}

// WriteTo serializes the Set as a trace container, one frame per shard.
func (s *Set) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	if err := WriteStreamHeader(bw); err != nil {
		return 0, err
	}
	n := int64(streamHeaderSize)
	var frame []byte
	for _, sh := range s.Shards {
		c := Chunk{Shard: sh.Shard, Start: sh.Total - uint64(len(sh.Records)), Records: sh.Records}
		frame = AppendFrame(frame[:0], &c)
		if _, err := bw.Write(frame); err != nil {
			return n, err
		}
		n += int64(len(frame))
	}
	return n, bw.Flush()
}

// ReadSet reads a trace container to its end — a trace file, or the body of
// /trace until the node finishes its trace — into a Set. A shard whose first
// frame does not start at record zero reads back with Total > len(Records).
func ReadSet(r io.Reader) (*Set, error) {
	br := bufio.NewReader(r)
	var hdr [streamHeaderSize]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: reading stream header: %w", err)
	}
	if [4]byte(hdr[0:4]) != streamMagic {
		return nil, fmt.Errorf("trace: bad stream magic %q (not a trace)", hdr[0:4])
	}
	if v := binary.LittleEndian.Uint16(hdr[4:6]); v != streamVersion {
		return nil, fmt.Errorf("trace: unsupported stream version %d", v)
	}
	b := NewSetBuilder()
	// Each frame is buffered before it is decoded, and the buffer follows the
	// bytes received, not the count the header claims: a header announcing
	// four billion records in front of an empty body is a truncated frame,
	// not a 171 GB allocation.
	var frame bytes.Buffer
	for {
		frame.Reset()
		if n, err := io.CopyN(&frame, br, frameHeaderSize); err != nil {
			if err == io.EOF && n == 0 {
				return b.Set(), nil
			}
			return nil, fmt.Errorf("trace: frame header cut short after %d bytes: %w", n, err)
		}
		_, body, _ := frameHeader(frame.Bytes())
		if _, err := io.CopyN(&frame, br, int64(body)); err != nil && err != io.EOF {
			return nil, fmt.Errorf("trace: reading frame: %w", err)
		}
		c, _, err := DecodeFrame(frame.Bytes()) // reports a body cut short by EOF
		if err != nil {
			return nil, err
		}
		if err := b.Add(c); err != nil {
			return nil, err
		}
	}
}
