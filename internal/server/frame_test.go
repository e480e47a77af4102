package server

import "io"

// Test-side framing. Tests, fuzz targets and the corpus generator build
// their frames with the encoder that ships (AppendRequestFrame, AppendResult,
// beginFrame/endFrame) and split the bytes back into a Frame where they want
// to look at a verb and its payload.

// splitFrame views one complete wire frame (u32 length | verb | payload) as
// a Frame.
func splitFrame(wire []byte, err error) (Frame, error) {
	if err != nil {
		return Frame{}, err
	}
	return Frame{Verb: Verb(wire[4]), Payload: wire[5:]}, nil
}

// encodeRequest is AppendRequestFrame's bare frame, split into verb and payload.
func encodeRequest(req Request) (Frame, error) {
	return splitFrame(AppendRequestFrame(nil, req, 0, false))
}

// encodeResult is AppendResult's payload under its verb.
func encodeResult(verb Verb, res Result) (Frame, error) {
	payload, err := AppendResult(nil, verb, res)
	if err != nil {
		return Frame{}, err
	}
	return Frame{Verb: verb, Payload: payload}, nil
}

// DecodeResult is DecodeResultInto a fresh Result.
func DecodeResult(f Frame) (Result, error) {
	var res Result
	if err := DecodeResultInto(f, &res); err != nil {
		return Result{}, err
	}
	return res, nil
}

// appendFrame frames an already encoded payload the way the server's reply
// path and the client's request path do.
func appendFrame(buf []byte, f Frame, id uint32, tagged bool) ([]byte, error) {
	buf, start := beginFrame(buf, envelopeFor(f.Verb), id, tagged)
	return endFrame(append(append(buf, byte(f.Verb)), f.Payload...), start)
}

// writeFrame writes one bare frame to w.
func writeFrame(w io.Writer, f Frame) error {
	wire, err := appendFrame(nil, f, 0, false)
	if err != nil {
		return err
	}
	_, err = w.Write(wire)
	return err
}

// wrapTagged returns f inside the pipelining envelope carrying id.
func wrapTagged(id uint32, f Frame) (Frame, error) {
	return splitFrame(appendFrame(nil, f, id, true))
}
