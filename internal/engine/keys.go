package engine

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"errors"
	"fmt"
	"io"

	"repro/internal/securejoin"
	"repro/internal/sse"
	"repro/internal/wire"
)

// Client key persistence: ExportKeys writes every client secret (Secure
// Join master key, payload AEAD key, SSE index keys) so a client can be
// reconstructed in a later session with LoadClientKeys and keep
// querying previously uploaded tables. The output must be stored like
// any other long-term secret key. Its layout:
//
//	keyFileMagic
//	uvarint  len(scheme), then Scheme.MarshalBinary's bytes
//	32 bytes payload AEAD key
//	the SSE keys (sse.Client.MarshalKeys) to the end of the file

// keyFileMagic opens every key file this format writes; earlier builds
// wrote a gob image, which LoadClientKeys refuses.
const keyFileMagic = "SJ KEYS 2\n"

// ErrBadKeyFile is returned (wrapped) by LoadClientKeys for a file that
// has the format header but not the layout behind it.
var ErrBadKeyFile = errors.New("engine: malformed key file")

// ExportKeys serializes all client secrets to w.
func (c *Client) ExportKeys(w io.Writer) error {
	schemeBytes, err := c.scheme.MarshalBinary()
	if err != nil {
		return fmt.Errorf("engine: encoding scheme: %w", err)
	}
	sseBytes, err := c.sse.MarshalKeys()
	if err != nil {
		return fmt.Errorf("engine: encoding SSE keys: %w", err)
	}
	b := wire.AppendBytes([]byte(keyFileMagic), schemeBytes)
	b = append(append(b, c.payloadKey...), sseBytes...)
	_, err = w.Write(b)
	return err
}

// LoadClientKeys reconstructs a client from ExportKeys output.
func LoadClientKeys(r io.Reader) (*Client, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("engine: reading key file: %w", err)
	}
	rest, ok := bytes.CutPrefix(data, []byte(keyFileMagic))
	if !ok {
		return nil, errors.New("engine: not a key file of this build (no format header): earlier builds wrote gob key files, which this build does not read; run sjclient keygen again and re-upload the tables")
	}
	kr := wire.NewReader(rest, ErrBadKeyFile)
	schemeBytes, payloadKey, sseBytes := kr.Bytes(), kr.Next(32), kr.Rest()
	if err := kr.Done(); err != nil {
		return nil, err
	}
	scheme, err := securejoin.LoadScheme(schemeBytes, nil)
	if err != nil {
		return nil, fmt.Errorf("%w: scheme: %w", ErrBadKeyFile, err)
	}
	sseClient, err := sse.LoadClientKeys(sseBytes)
	if err != nil {
		return nil, fmt.Errorf("%w: SSE keys: %w", ErrBadKeyFile, err)
	}
	block, err := aes.NewCipher(payloadKey)
	if err != nil {
		return nil, err
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, err
	}
	return &Client{
		scheme:      scheme,
		payloadAEAD: aead,
		payloadKey:  payloadKey,
		sse:         sseClient,
		rng:         rand.Reader,
	}, nil
}
