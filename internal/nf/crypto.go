package nf

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/subtle"
	"encoding/binary"
	"fmt"
	"math/bits"

	"lemur/internal/packet"
)

// encrypt is the paper's 128-bit AES-CBC payload encryption NF (server-only:
// PISA switches cannot do payload crypto). It encrypts the L4 payload in
// place; payloads are processed in whole 16-byte blocks, with a trailing
// partial block left clear (the simulated dataplane keeps frame sizes fixed,
// so we cannot pad).
//
// The CBC mode is built once per instance and carries the chaining IV, so an
// instance is mutable state like the flow tables: every deployment compiles
// its own NF instances, and a subgroup's NFs run on one simulator shard at a
// time.
type encrypt struct {
	base
	mode cbcMode
}

// cbcMode is what cipher.NewCBCEncrypter and NewCBCDecrypter return for an
// AES block: a BlockMode whose IV can be reset without rebuilding it.
type cbcMode interface {
	cipher.BlockMode
	SetIV([]byte)
}

// staticIV restarts every packet's CBC chain.
var staticIV = []byte("lemur-static-iv!")

// newEncrypt builds the AES-CBC encryptor. Param "key" (string, 16 bytes)
// overrides the default key.
func newEncrypt(name string, params Params) (NF, error) {
	return newCBC(name, "Encrypt", params, cipher.NewCBCEncrypter)
}

// Decrypt is the inverse NF.
func newDecrypt(name string, params Params) (NF, error) {
	return newCBC(name, "Decrypt", params, cipher.NewCBCDecrypter)
}

func newCBC(name, class string, params Params, newMode func(cipher.Block, []byte) cipher.BlockMode) (NF, error) {
	key := []byte(params.str("key", "lemur-aes-cbc-16"))
	if len(key) != 16 {
		return nil, fmt.Errorf("nf: %s %s: key must be 16 bytes, got %d", class, name, len(key))
	}
	blk, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("nf: %s %s: %w", class, name, err)
	}
	return &encrypt{base: base{name: name, class: class}, mode: newMode(blk, staticIV).(cbcMode)}, nil
}

// Process encrypts (class Encrypt) or decrypts (class Decrypt) the payload's
// whole blocks in place, each packet chained from the static IV. The mode is
// reused across packets, so this allocates nothing.
func (e *encrypt) Process(p *packet.Packet, _ *Env) {
	pay := p.Payload()
	n := len(pay) &^ 15 // whole AES blocks
	if n == 0 {
		return
	}
	e.mode.SetIV(staticIV)
	e.mode.CryptBlocks(pay[:n], pay[:n])
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
		subtle.XORBytes(pay[off:], pay[off:], stream[:])
	}
}

// chachaBlock computes one 64-byte ChaCha20 keystream block (RFC 8439 §2.3),
// keeping the 16 state words in locals through the 20 rounds.
func chachaBlock(key *[8]uint32, nonce [3]uint32, counter uint32, out *[64]byte) {
	const c0, c1, c2, c3 = 0x61707865, 0x3320646e, 0x79622d32, 0x6b206574
	x0, x1, x2, x3 := uint32(c0), uint32(c1), uint32(c2), uint32(c3)
	x4, x5, x6, x7, x8, x9, x10, x11 := key[0], key[1], key[2], key[3], key[4], key[5], key[6], key[7]
	x12, x13, x14, x15 := counter, nonce[0], nonce[1], nonce[2]
	for i := 0; i < 10; i++ {
		// column rounds
		x0, x4, x8, x12 = quarter(x0, x4, x8, x12)
		x1, x5, x9, x13 = quarter(x1, x5, x9, x13)
		x2, x6, x10, x14 = quarter(x2, x6, x10, x14)
		x3, x7, x11, x15 = quarter(x3, x7, x11, x15)
		// diagonal rounds
		x0, x5, x10, x15 = quarter(x0, x5, x10, x15)
		x1, x6, x11, x12 = quarter(x1, x6, x11, x12)
		x2, x7, x8, x13 = quarter(x2, x7, x8, x13)
		x3, x4, x9, x14 = quarter(x3, x4, x9, x14)
	}
	for i, w := range [16]uint32{
		x0 + c0, x1 + c1, x2 + c2, x3 + c3,
		x4 + key[0], x5 + key[1], x6 + key[2], x7 + key[3],
		x8 + key[4], x9 + key[5], x10 + key[6], x11 + key[7],
		x12 + counter, x13 + nonce[0], x14 + nonce[1], x15 + nonce[2],
	} {
		binary.LittleEndian.PutUint32(out[i*4:], w)
	}
}

func quarter(a, b, c, d uint32) (uint32, uint32, uint32, uint32) {
	a += b
	d = bits.RotateLeft32(d^a, 16)
	c += d
	b = bits.RotateLeft32(b^c, 12)
	a += b
	d = bits.RotateLeft32(d^a, 8)
	c += d
	b = bits.RotateLeft32(b^c, 7)
	return a, b, c, d
}
