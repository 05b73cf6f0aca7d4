package transport

// MessageSamples returns the representative value each control message was
// registered with, in tag order; the codec's tests and fuzz seeds range over
// them.
func MessageSamples() []WireMessage {
	var out []WireMessage
	for _, m := range messages {
		if m.decode != nil {
			out = append(out, m.sample)
		}
	}
	return out
}
