package nf

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"math/rand"
	"testing"

	"lemur/internal/packet"
)

// cbcEncryptRef and cbcDecryptRef are the hand-rolled CBC loops the crypto
// NFs ran before they held a cipher.BlockMode: chaining over blk from iv,
// whole 16-byte blocks only. They are the oracle for TestCBCMatchesReference.
func cbcEncryptRef(blk cipher.Block, iv [16]byte, pay []byte) {
	n := len(pay) &^ 15
	prev := iv[:]
	for off := 0; off < n; off += 16 {
		b := pay[off : off+16]
		for i := range b {
			b[i] ^= prev[i]
		}
		blk.Encrypt(b, b)
		prev = b
	}
}

func cbcDecryptRef(blk cipher.Block, iv [16]byte, pay []byte) {
	n := len(pay) &^ 15
	prev := iv
	var ct [16]byte
	for off := 0; off < n; off += 16 {
		b := pay[off : off+16]
		copy(ct[:], b)
		blk.Decrypt(b, b)
		for i := range b {
			b[i] ^= prev[i]
		}
		prev = ct
	}
}

// TestCBCMatchesReference holds one reused Encrypt and one reused Decrypt
// instance, packet after packet, to the hand-rolled CBC loops and to a
// cipher.NewCBCEncrypter/NewCBCDecrypter built afresh over the same key and
// the static IV: every packet chains from that IV (no IV carried over from
// the previous packet), and a trailing partial block passes through clear.
func TestCBCMatchesReference(t *testing.T) {
	iv := [16]byte([]byte("lemur-static-iv!"))
	lengths := []int{0, 1, 15, 16, 17, 1400, 1476}
	rng := rand.New(rand.NewSource(52))
	for _, key := range []string{"", "0123456789abcdef"} {
		params := Params{}
		keyBytes := []byte("lemur-aes-cbc-16")
		if key != "" {
			params["key"] = key
			keyBytes = []byte(key)
		}
		blk, err := aes.NewCipher(keyBytes)
		if err != nil {
			t.Fatal(err)
		}
		enc, err := newEncrypt("e0", params)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := newDecrypt("d0", params)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 3; round++ {
			for _, l := range lengths {
				plain := make([]byte, l)
				rng.Read(plain)
				p := udp(packet.IPv4Addr{10, 0, 0, 1}, packet.IPv4Addr{10, 0, 1, 2}, 4000, 80, plain)
				n := l &^ 15

				enc.Process(p, env())
				ct := append([]byte(nil), p.Payload()...)
				ref := append([]byte(nil), plain...)
				cbcEncryptRef(blk, iv, ref)
				std := append([]byte(nil), plain...)
				cipher.NewCBCEncrypter(blk, iv[:]).CryptBlocks(std[:n], std[:n])
				if !bytes.Equal(ct, ref) || !bytes.Equal(ct, std) {
					t.Fatalf("key %q round %d len %d: Encrypt differs from the reference loop or cipher.NewCBCEncrypter", key, round, l)
				}
				if !bytes.Equal(ct[n:], plain[n:]) {
					t.Fatalf("key %q round %d len %d: Encrypt touched the partial block", key, round, l)
				}
				if n > 0 && bytes.Equal(ct[:n], plain[:n]) {
					t.Fatalf("key %q round %d len %d: Encrypt left the whole blocks clear", key, round, l)
				}

				dec.Process(p, env())
				ref = append([]byte(nil), ct...)
				cbcDecryptRef(blk, iv, ref)
				std = append([]byte(nil), ct...)
				cipher.NewCBCDecrypter(blk, iv[:]).CryptBlocks(std[:n], std[:n])
				if !bytes.Equal(p.Payload(), ref) || !bytes.Equal(p.Payload(), std) {
					t.Fatalf("key %q round %d len %d: Decrypt differs from the reference loop or cipher.NewCBCDecrypter", key, round, l)
				}
				if !bytes.Equal(p.Payload(), plain) {
					t.Fatalf("key %q round %d len %d: Decrypt did not restore the plaintext", key, round, l)
				}
			}
		}
	}
}

// TestCryptoNFsAllocateNothing: Encrypt, Decrypt and FastEncrypt run on the
// simulator's per-packet path, so processing a packet allocates nothing.
func TestCryptoNFsAllocateNothing(t *testing.T) {
	payload := make([]byte, 1400)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	for _, class := range []string{"Encrypt", "Decrypt", "FastEncrypt"} {
		inst, err := New(class, "a0", nil)
		if err != nil {
			t.Fatal(err)
		}
		p := udp(packet.IPv4Addr{10, 0, 0, 1}, packet.IPv4Addr{10, 0, 1, 2}, 4000, 80, payload)
		e := env()
		if allocs := testing.AllocsPerRun(100, func() { inst.Process(p, e) }); allocs != 0 {
			t.Errorf("%s.Process allocated %.2f objects per packet, want 0", class, allocs)
		}
	}
}

// chachaBlockRef is the ChaCha20 block function as first written here, over
// a [16]uint32 indexed through quarterRef: the oracle for chachaBlock.
func chachaBlockRef(key *[8]uint32, nonce [3]uint32, counter uint32, out *[64]byte) {
	var s [16]uint32
	s[0], s[1], s[2], s[3] = 0x61707865, 0x3320646e, 0x79622d32, 0x6b206574
	copy(s[4:12], key[:])
	s[12] = counter
	s[13], s[14], s[15] = nonce[0], nonce[1], nonce[2]
	w := s
	for i := 0; i < 10; i++ {
		quarterRef(&w, 0, 4, 8, 12)
		quarterRef(&w, 1, 5, 9, 13)
		quarterRef(&w, 2, 6, 10, 14)
		quarterRef(&w, 3, 7, 11, 15)
		quarterRef(&w, 0, 5, 10, 15)
		quarterRef(&w, 1, 6, 11, 12)
		quarterRef(&w, 2, 7, 8, 13)
		quarterRef(&w, 3, 4, 9, 14)
	}
	for i := range w {
		binary.LittleEndian.PutUint32(out[i*4:], w[i]+s[i])
	}
}

func quarterRef(s *[16]uint32, a, b, c, d int) {
	rotl := func(v uint32, n uint) uint32 { return v<<n | v>>(32-n) }
	s[a] += s[b]
	s[d] = rotl(s[d]^s[a], 16)
	s[c] += s[d]
	s[b] = rotl(s[b]^s[c], 12)
	s[a] += s[b]
	s[d] = rotl(s[d]^s[a], 8)
	s[c] += s[d]
	s[b] = rotl(s[b]^s[c], 7)
}

// TestChaChaMatchesReference holds chachaBlock to chachaBlockRef over random
// keys, nonces and counters, and FastEncrypt's Process to the reference
// keystream XOR-ed byte by byte, at payload lengths around the 64-byte block.
func TestChaChaMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(8439))
	for i := 0; i < 1000; i++ {
		var key [8]uint32
		for j := range key {
			key[j] = rng.Uint32()
		}
		nonce := [3]uint32{rng.Uint32(), rng.Uint32(), rng.Uint32()}
		counter := rng.Uint32()
		var got, want [64]byte
		chachaBlock(&key, nonce, counter, &got)
		chachaBlockRef(&key, nonce, counter, &want)
		if got != want {
			t.Fatalf("key %08x nonce %08x counter %d: chachaBlock %x, reference %x", key, nonce, counter, got, want)
		}
	}

	for _, key := range []string{"", "0123456789abcdef0123456789abcdef"} {
		params := Params{}
		if key != "" {
			params["key"] = key
		}
		inst, err := newFastEncrypt("f0", params)
		if err != nil {
			t.Fatal(err)
		}
		f := inst.(*fastEncrypt)
		for _, l := range []int{0, 1, 63, 64, 65, 1400, 1476} {
			plain := make([]byte, l)
			rng.Read(plain)
			p := udp(packet.IPv4Addr{10, 0, 0, 1}, packet.IPv4Addr{10, 0, 1, 2}, uint16(rng.Intn(65536)), 80, plain)
			want := append([]byte(nil), plain...)
			var nonce [3]uint32
			if tu, err := p.Tuple(); err == nil {
				h := tu.Hash()
				nonce[0], nonce[1] = uint32(h), uint32(h>>32)
			}
			var stream [64]byte
			for off := 0; off < l; off += 64 {
				chachaBlockRef(&f.key, nonce, uint32(1+off/64), &stream)
				for i := off; i < l && i < off+64; i++ {
					want[i] ^= stream[i-off]
				}
			}
			f.Process(p, env())
			if !bytes.Equal(p.Payload(), want) {
				t.Fatalf("key %q len %d: FastEncrypt differs from the reference keystream", key, l)
			}
		}
	}
}
