package nsh

import (
	"bytes"
	"encoding/binary"
	"testing"

	"lemur/internal/packet"
)

// decapCopy is the copying decap the in-place codecs are held to: it strips
// the NSH header into a fresh buffer, restoring the plain L2+IPv4 frame, and
// never touches its input.
func decapCopy(frame []byte) (out []byte, spi uint32, si uint8, err error) {
	etOff, hdrOff, err := tagOffset(frame)
	if err != nil {
		return nil, 0, 0, err
	}
	if binary.BigEndian.Uint16(frame[etOff:]) != packet.EtherTypeNSH ||
		len(frame) < hdrOff+packet.NSHLen {
		return nil, 0, 0, ErrNotEncapped
	}
	sp := binary.BigEndian.Uint32(frame[hdrOff+4:])
	out = make([]byte, len(frame)-packet.NSHLen)
	copy(out, frame[:hdrOff])
	binary.BigEndian.PutUint16(out[etOff:], packet.EtherTypeIPv4)
	copy(out[hdrOff:], frame[hdrOff+packet.NSHLen:])
	return out, sp >> 8, uint8(sp), nil
}

// FuzzNSHInPlace: on arbitrary frames with arbitrary spare capacity, the
// in-place quartet gives exactly the copying codec's bytes, tags and
// verdicts. EncapInPlace equals Encap and stays in a buffer with room for
// the header; DecapInPlace and DecapShift equal decapCopy, on any input,
// and keep the base pointer and the frame[NSHLen:] alias respectively;
// EncapShift, on any buffer, equals Encap of what follows its first NSHLen
// bytes; and a round trip restores the frame.
func FuzzNSHInPlace(f *testing.F) {
	plain := packet.Builder{
		// Distinct MAC bytes, so a header slid to the wrong offset shows.
		EthDst: packet.MAC{0x02, 0xaa, 0xbb, 0xcc, 0xdd, 0xee},
		EthSrc: packet.MAC{0x02, 0x11, 0x22, 0x33, 0x44, 0x55},
		Src:    packet.IPv4Addr{10, 0, 0, 1}, Dst: packet.IPv4Addr{172, 16, 0, 1},
		SrcPort: 4000, DstPort: 80, Payload: []byte("payload"),
	}
	tagged := plain
	tagged.VLANID = 42
	enc, _ := Encap(plain.Build(), 7, 3)
	f.Add(plain.Build(), uint8(packet.NSHLen), uint32(7), uint8(3))
	f.Add(tagged.Build(), uint8(0), uint32(maxSPI), uint8(255))
	f.Add(enc, uint8(packet.TailRoom), uint32(1), uint8(0))
	f.Add(tagged.Build()[:17], uint8(3), uint32(maxSPI+1), uint8(1))
	f.Add([]byte{}, uint8(9), uint32(0), uint8(0))

	f.Fuzz(func(t *testing.T, frame []byte, room uint8, spi uint32, si uint8) {
		in := append([]byte(nil), frame...)
		withRoom := func() []byte {
			buf := make([]byte, len(frame), len(frame)+int(room))
			copy(buf, frame)
			return buf
		}

		// Encap against EncapInPlace.
		want, werr := Encap(frame, spi, si)
		if !bytes.Equal(frame, in) {
			t.Fatal("Encap mutated its input")
		}
		buf := withRoom()
		got, gerr := EncapInPlace(buf, spi, si)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("EncapInPlace err %v, Encap err %v", gerr, werr)
		}
		if werr == nil {
			if !bytes.Equal(got, want) {
				t.Fatalf("EncapInPlace:\n want %x\n got  %x", want, got)
			}
			if int(room) >= packet.NSHLen && &got[0] != &buf[0] {
				t.Fatal("EncapInPlace left a buffer with room for the header")
			}
		}

		// Each decap against decapCopy, on the input as it is.
		wantDec, wantSPI, wantSI, werr := decapCopy(frame)
		if !bytes.Equal(frame, in) {
			t.Fatal("decapCopy mutated its input")
		}
		checkDecap := func(name string, got []byte, gotSPI uint32, gotSI uint8, gerr error) {
			t.Helper()
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("%s err %v, decapCopy err %v", name, gerr, werr)
			}
			if werr == nil && (!bytes.Equal(got, wantDec) || gotSPI != wantSPI || gotSI != wantSI) {
				t.Fatalf("%s: %d/%d %x, want %d/%d %x", name, gotSPI, gotSI, got, wantSPI, wantSI, wantDec)
			}
		}
		buf = withRoom()
		dec, dSPI, dSI, derr := DecapInPlace(buf)
		checkDecap("DecapInPlace", dec, dSPI, dSI, derr)
		if derr == nil && (&dec[0] != &buf[0] || cap(dec) != cap(buf)) {
			t.Fatal("DecapInPlace must keep the base pointer and capacity")
		}
		buf = withRoom()
		inner, sSPI, sSI, serr := DecapShift(buf)
		checkDecap("DecapShift", inner, sSPI, sSI, serr)
		if serr == nil {
			if &inner[0] != &buf[packet.NSHLen] {
				t.Fatal("DecapShift inner must alias frame[NSHLen:]")
			}
			// Re-wrapping the shifted frame is Encap of the decapped one.
			wantRe, rerr := Encap(wantDec, spi, si)
			if err := EncapShift(buf, spi, si); (err == nil) != (rerr == nil) {
				t.Fatalf("EncapShift after DecapShift err %v, Encap err %v", err, rerr)
			} else if err == nil && !bytes.Equal(buf, wantRe) {
				t.Fatalf("EncapShift after DecapShift:\n want %x\n got  %x", wantRe, buf)
			}
		}

		// EncapShift on any buffer.
		buf = withRoom()
		serr = EncapShift(buf, spi, si)
		if len(frame) < packet.NSHLen {
			if serr == nil {
				t.Fatal("EncapShift accepted a buffer shorter than the header")
			}
		} else {
			wantSh, werr := Encap(frame[packet.NSHLen:], spi, si)
			if (serr == nil) != (werr == nil) {
				t.Fatalf("EncapShift err %v, Encap err %v", serr, werr)
			}
			if werr == nil && !bytes.Equal(buf, wantSh) {
				t.Fatalf("EncapShift:\n want %x\n got  %x", wantSh, buf)
			}
		}

		// Round trip through the in-place pair restores the frame.
		if want != nil {
			back, bSPI, bSI, err := DecapInPlace(got)
			if err != nil || bSPI != spi || bSI != si || !bytes.Equal(back, frame) {
				t.Fatalf("round trip: %d/%d %v %x, want %d/%d %x", bSPI, bSI, err, back, spi, si, frame)
			}
		}
	})
}
