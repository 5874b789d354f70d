package main

import (
	"bytes"
	"fmt"
	"io"

	"repro/rpx"
	"repro/rpx/client"
)

// streamDecoder is the consumer's PMMU: it reconstructs pushed frames in
// arrival order through rpx.DecodeStream, so temporally skipped pixels
// resolve against the same history the producer's decoder holds. Frames go
// in as their wire bytes through a pipe; a goroutine owned by the decoder
// runs the stream decode and hands each reconstruction back.
type streamDecoder struct {
	pw      *io.PipeWriter
	out     chan *rpx.Frame
	done    chan error // receives DecodeStream's result once, then is refilled by readers
	started bool
}

func newStreamDecoder() *streamDecoder {
	pr, pw := io.Pipe()
	d := &streamDecoder{pw: pw, out: make(chan *rpx.Frame), done: make(chan error, 1)}
	go func() {
		err := rpx.DecodeStream(pr, rpx.Gray8, func(_ int, img *rpx.Frame) error {
			d.out <- img
			return nil
		})
		if err == nil {
			err = io.EOF
		}
		pr.CloseWithError(err) // fails any write still waiting on the reader
		d.done <- err
	}()
	return d
}

// decode feeds one pushed frame's container bytes and returns its
// reconstruction.
func (d *streamDecoder) decode(f *client.StreamFrame) (*rpx.Frame, error) {
	if !d.started {
		// The stream container opens with a header that the first frame's
		// geometry fixes; take it from a stream writer's output.
		ef, err := f.Decode()
		if err != nil {
			return nil, err
		}
		var b bytes.Buffer
		if err := rpx.NewStreamWriter(&b).WriteFrame(ef); err != nil {
			return nil, err
		}
		if _, err := d.pw.Write(b.Bytes()[:b.Len()-ef.EncodedSize()]); err != nil {
			return nil, fmt.Errorf("consumer decode: %w", err)
		}
		d.started = true
	}
	if _, err := d.pw.Write(f.Raw); err != nil {
		return nil, fmt.Errorf("consumer decode: %w", err)
	}
	select {
	case img := <-d.out:
		return img, nil
	case err := <-d.done:
		d.done <- err
		return nil, fmt.Errorf("consumer decode: %w", err)
	}
}

// close ends the stream and waits for the decode goroutine to return.
func (d *streamDecoder) close() {
	d.pw.Close()
	d.done <- <-d.done
}
