package trafficgen

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Classic libpcap file format (not pcapng): a 24-byte global header followed
// by 16-byte per-record headers. Written little-endian with the standard
// 0xa1b2c3d4 magic so any capture tool (tcpdump, Wireshark, gopacket) can
// open generated traffic for inspection.

const (
	pcapMagic   = 0xa1b2c3d4
	pcapVMajor  = 2
	pcapVMinor  = 4
	pcapSnapLen = 65535
	linkTypeEth = 1
)

// PcapWriter streams frames into a pcap file.
type PcapWriter struct {
	w     io.Writer
	count int
}

// NewPcapWriter writes the global header and returns a writer.
func NewPcapWriter(w io.Writer) (*PcapWriter, error) {
	var hdr [24]byte
	binary.LittleEndian.PutUint32(hdr[0:], pcapMagic)
	binary.LittleEndian.PutUint16(hdr[4:], pcapVMajor)
	binary.LittleEndian.PutUint16(hdr[6:], pcapVMinor)
	// thiszone, sigfigs = 0
	binary.LittleEndian.PutUint32(hdr[16:], pcapSnapLen)
	binary.LittleEndian.PutUint32(hdr[20:], linkTypeEth)
	if _, err := w.Write(hdr[:]); err != nil {
		return nil, fmt.Errorf("trafficgen: pcap header: %w", err)
	}
	return &PcapWriter{w: w}, nil
}

// WriteFrame appends one frame with the given capture timestamp. A frame
// longer than the snap length is cut to it; the record's original length
// stays the frame's.
func (pw *PcapWriter) WriteFrame(tsSec float64, frame []byte) error {
	origLen := len(frame)
	if len(frame) > pcapSnapLen {
		frame = frame[:pcapSnapLen]
	}
	var rec [16]byte
	sec := uint32(tsSec)
	usec := uint32((tsSec - float64(sec)) * 1e6)
	binary.LittleEndian.PutUint32(rec[0:], sec)
	binary.LittleEndian.PutUint32(rec[4:], usec)
	binary.LittleEndian.PutUint32(rec[8:], uint32(len(frame)))
	binary.LittleEndian.PutUint32(rec[12:], uint32(origLen))
	if _, err := pw.w.Write(rec[:]); err != nil {
		return fmt.Errorf("trafficgen: pcap record: %w", err)
	}
	if _, err := pw.w.Write(frame); err != nil {
		return fmt.Errorf("trafficgen: pcap frame: %w", err)
	}
	pw.count++
	return nil
}

// Count returns the number of frames written.
func (pw *PcapWriter) Count() int { return pw.count }

// DumpPcap generates n frames from the generator at the given packet rate
// and writes them as a capture.
func DumpPcap(w io.Writer, g *Generator, n int, pps float64) error {
	pw, err := NewPcapWriter(w)
	if err != nil {
		return err
	}
	if pps <= 0 {
		pps = 1e6
	}
	var buf []byte
	for i := 0; i < n; i++ {
		ts := float64(i) / pps
		buf = g.NextInto(buf, ts)
		if err := pw.WriteFrame(ts, buf); err != nil {
			return err
		}
	}
	return nil
}

// ReadPcap parses a capture produced by PcapWriter back into frames —
// primarily for tests and round-trip verification.
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
