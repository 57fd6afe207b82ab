package nf

import (
	"bytes"

	"lemur/internal/packet"
)

// UrlFilter drops HTTP requests whose Host header or request path matches a
// blocklist entry ("HTML Filter" in Table 3). Non-HTTP traffic passes.
type UrlFilter struct {
	base
	blocked [][]byte
}

// NewUrlFilter builds the filter. Param "block" is the blocklist (list of
// substrings); the default blocks "blocked.example".
func NewUrlFilter(name string, params Params) (NF, error) {
	list := params.StrSlice("block")
	if len(list) == 0 {
		list = []string{"blocked.example"}
	}
	u := &UrlFilter{base: base{name: name, class: "UrlFilter"}}
	for _, s := range list {
		u.blocked = append(u.blocked, []byte(s))
	}
	return u, nil
}

var httpMethods = [][]byte{[]byte("GET "), []byte("POST "), []byte("PUT "), []byte("HEAD ")}

// Process scans TCP payloads that look like HTTP request heads.
func (u *UrlFilter) Process(p *packet.Packet, _ *Env) {
	if !p.HasTCP {
		return
	}
	pay := p.Payload()
	if len(pay) < 5 {
		return
	}
	isHTTP := false
	for _, m := range httpMethods {
		if bytes.HasPrefix(pay, m) {
			isHTTP = true
			break
		}
	}
	if !isHTTP {
		return
	}
	// Scan only the request head (first line + headers up to 512 bytes).
	head := pay
	if len(head) > 512 {
		head = head[:512]
	}
	for _, b := range u.blocked {
		if bytes.Contains(head, b) {
			p.Drop = true
			return
		}
	}
}
