package trafficgen

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"testing"

	"lemur/internal/packet"
)

func TestPcapRoundTrip(t *testing.T) {
	g, err := New(Config{Mode: LongLived, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	pw, err := NewPcapWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var frame []byte
	for i := 0; i < 25; i++ {
		ts := float64(i) / 1000
		frame = g.NextInto(frame, ts)
		if err := pw.WriteFrame(ts, frame); err != nil {
			t.Fatal(err)
		}
	}
	frames, err := ReadPcap(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 25 {
		t.Fatalf("frames = %d, want 25", len(frames))
	}
	// Every recovered frame decodes as a valid packet from the aggregate.
	for i, f := range frames {
		var p packet.Packet
		if err := p.Decode(f); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !p.HasIPv4 || p.IP.Src.Uint32()>>24 != 10 {
			t.Errorf("frame %d: src %v outside 10/8", i, p.IP.Src)
		}
	}
}

// TestPcapHeaderFields: the global header and each record's timestamp,
// captured length and original length. A frame longer than the snap length
// is cut to it, but its record keeps the frame's original length.
func TestPcapHeaderFields(t *testing.T) {
	for _, n := range []int{4, 70000} {
		var buf bytes.Buffer
		pw, err := NewPcapWriter(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if err := pw.WriteFrame(1.5, make([]byte, n)); err != nil {
			t.Fatal(err)
		}
		b := buf.Bytes()
		if got := binary.LittleEndian.Uint32(b[0:]); got != 0xa1b2c3d4 {
			t.Errorf("magic = %#x", got)
		}
		if got := binary.LittleEndian.Uint32(b[20:]); got != 1 {
			t.Errorf("linktype = %d, want 1 (Ethernet)", got)
		}
		// Record: ts 1.5s = sec 1 usec 500000, caplen, origlen.
		rec := b[24:]
		if binary.LittleEndian.Uint32(rec[0:]) != 1 || binary.LittleEndian.Uint32(rec[4:]) != 500000 {
			t.Errorf("timestamp = %d.%06d", binary.LittleEndian.Uint32(rec[0:]), binary.LittleEndian.Uint32(rec[4:]))
		}
		wantCap := min(n, pcapSnapLen)
		if got := binary.LittleEndian.Uint32(rec[8:]); got != uint32(wantCap) {
			t.Errorf("%d-byte frame: caplen = %d, want %d", n, got, wantCap)
		}
		if got := binary.LittleEndian.Uint32(rec[12:]); got != uint32(n) {
			t.Errorf("%d-byte frame: origlen = %d, want %d", n, got, n)
		}
		if got := len(rec) - 16; got != wantCap {
			t.Errorf("%d-byte frame: %d bytes written, want %d", n, got, wantCap)
		}
	}
}

func TestReadPcapErrors(t *testing.T) {
	if _, err := ReadPcap(bytes.NewReader([]byte{1, 2, 3})); err == nil {
		t.Error("short header must fail")
	}
	bad := make([]byte, 24)
	if _, err := ReadPcap(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic must fail")
	}
	// Truncated record body.
	var buf bytes.Buffer
	pw, _ := NewPcapWriter(&buf)
	pw.WriteFrame(0, make([]byte, 100))
	trunc := buf.Bytes()[:buf.Len()-10]
	if _, err := ReadPcap(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated frame must fail")
	}
}

// ReadPcap parses a capture produced by PcapWriter back into frames, the
// round-trip oracle for the writer.
func ReadPcap(r io.Reader) ([][]byte, error) {
	var hdr [24]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("trafficgen: pcap header: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != pcapMagic {
		return nil, fmt.Errorf("trafficgen: bad pcap magic %#x", binary.LittleEndian.Uint32(hdr[0:]))
	}
	var frames [][]byte
	for {
		var rec [16]byte
		if _, err := io.ReadFull(r, rec[:]); err == io.EOF {
			return frames, nil
		} else if err != nil {
			return nil, fmt.Errorf("trafficgen: pcap record: %w", err)
		}
		n := binary.LittleEndian.Uint32(rec[8:])
		if n > pcapSnapLen {
			return nil, fmt.Errorf("trafficgen: pcap record of %d bytes", n)
		}
		frame := make([]byte, n)
		if _, err := io.ReadFull(r, frame); err != nil {
			return nil, fmt.Errorf("trafficgen: pcap frame: %w", err)
		}
		frames = append(frames, frame)
	}
}
