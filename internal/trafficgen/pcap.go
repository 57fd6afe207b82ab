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
	w io.Writer
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
	return nil
}
