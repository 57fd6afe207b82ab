package nf

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"fmt"

	"lemur/internal/packet"
)

// encrypt is the paper's 128-bit AES-CBC payload encryption NF (server-only:
// PISA switches cannot do payload crypto). It encrypts the L4 payload in
// place; payloads are processed in whole 16-byte blocks, with a trailing
// partial block left clear (the simulated dataplane keeps frame sizes fixed,
// so we cannot pad).
type encrypt struct {
	base
	block cipher.Block
	iv    [16]byte
}

// newEncrypt builds the AES-CBC encryptor. Param "key" (string, 16 bytes)
// overrides the default key.
func newEncrypt(name string, params Params) (NF, error) {
	return newCBC(name, "Encrypt", params)
}

// Decrypt is the inverse NF.
func newDecrypt(name string, params Params) (NF, error) {
	return newCBC(name, "Decrypt", params)
}

func newCBC(name, class string, params Params) (NF, error) {
	key := []byte(params.str("key", "lemur-aes-cbc-16"))
	if len(key) != 16 {
		return nil, fmt.Errorf("nf: %s %s: key must be 16 bytes, got %d", class, name, len(key))
	}
	blk, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("nf: %s %s: %w", class, name, err)
	}
	e := &encrypt{base: base{name: name, class: class}, block: blk}
	copy(e.iv[:], "lemur-static-iv!")
	return e, nil
}

// Process encrypts (class Encrypt) or decrypts (class Decrypt) the payload.
// CBC chaining runs inline over e.block rather than through
// cipher.NewCBCEncrypter, whose per-packet construction is a heap allocation
// on the simulator's hot path; the output is bit-identical.
func (e *encrypt) Process(p *packet.Packet, _ *Env) {
	pay := p.Payload()
	n := len(pay) &^ 15 // whole AES blocks
	if n == 0 {
		return
	}
	if e.class == "Encrypt" {
		prev := e.iv[:]
		for off := 0; off < n; off += 16 {
			blk := pay[off : off+16]
			for i := range blk {
				blk[i] ^= prev[i]
			}
			e.block.Encrypt(blk, blk)
			prev = blk
		}
	} else {
		var prev, ct [16]byte
		prev = e.iv
		for off := 0; off < n; off += 16 {
			blk := pay[off : off+16]
			copy(ct[:], blk)
			e.block.Decrypt(blk, blk)
			for i := range blk {
				blk[i] ^= prev[i]
			}
			prev = ct
		}
	}
}

// fastEncrypt is the ChaCha20 NF ("Fast Enc." in Table 3). ChaCha has no
// stdlib cipher, so the block function is implemented here from RFC 8439.
// Because ChaCha is a stream cipher, applying the NF twice restores the
// plaintext. It is offloadable to the eBPF SmartNIC.
type fastEncrypt struct {
	base
	key [8]uint32
}

// newFastEncrypt builds the ChaCha20 NF. Param "key" (string, 32 bytes)
// overrides the default key.
func newFastEncrypt(name string, params Params) (NF, error) {
	key := []byte(params.str("key", "lemur-chacha20-key-32-bytes-long"))
	if len(key) != 32 {
		return nil, fmt.Errorf("nf: FastEncrypt %s: key must be 32 bytes, got %d", name, len(key))
	}
	f := &fastEncrypt{base: base{name: name, class: "FastEncrypt"}}
	for i := range f.key {
		f.key[i] = binary.LittleEndian.Uint32(key[i*4:])
	}
	return f, nil
}

// Process XORs the payload with the ChaCha20 keystream. The nonce derives
// from the flow 5-tuple hash so both directions of processing agree.
func (f *fastEncrypt) Process(p *packet.Packet, _ *Env) {
	pay := p.Payload()
	if len(pay) == 0 {
		return
	}
	var nonce [3]uint32
	if tu, err := p.Tuple(); err == nil {
		h := tu.Hash()
		nonce[0] = uint32(h)
		nonce[1] = uint32(h >> 32)
	}
	var stream [64]byte
	counter := uint32(1)
	for off := 0; off < len(pay); off += 64 {
		chachaBlock(&f.key, nonce, counter, &stream)
		counter++
		n := len(pay) - off
		if n > 64 {
			n = 64
		}
		for i := 0; i < n; i++ {
			pay[off+i] ^= stream[i]
		}
	}
}

// chachaBlock computes one 64-byte ChaCha20 keystream block (RFC 8439 §2.3).
func chachaBlock(key *[8]uint32, nonce [3]uint32, counter uint32, out *[64]byte) {
	var s [16]uint32
	s[0], s[1], s[2], s[3] = 0x61707865, 0x3320646e, 0x79622d32, 0x6b206574
	copy(s[4:12], key[:])
	s[12] = counter
	s[13], s[14], s[15] = nonce[0], nonce[1], nonce[2]
	w := s
	for i := 0; i < 10; i++ {
		// column rounds
		quarter(&w, 0, 4, 8, 12)
		quarter(&w, 1, 5, 9, 13)
		quarter(&w, 2, 6, 10, 14)
		quarter(&w, 3, 7, 11, 15)
		// diagonal rounds
		quarter(&w, 0, 5, 10, 15)
		quarter(&w, 1, 6, 11, 12)
		quarter(&w, 2, 7, 8, 13)
		quarter(&w, 3, 4, 9, 14)
	}
	for i := range w {
		binary.LittleEndian.PutUint32(out[i*4:], w[i]+s[i])
	}
}

func quarter(s *[16]uint32, a, b, c, d int) {
	s[a] += s[b]
	s[d] = rotl(s[d]^s[a], 16)
	s[c] += s[d]
	s[b] = rotl(s[b]^s[c], 12)
	s[a] += s[b]
	s[d] = rotl(s[d]^s[a], 8)
	s[c] += s[d]
	s[b] = rotl(s[b]^s[c], 7)
}

func rotl(v uint32, n uint) uint32 { return v<<n | v>>(32-n) }
