package dist

import (
	"bufio"
	"bytes"
	"testing"

	"hpcmr/internal/codec"
)

// FuzzCodecRecv feeds arbitrary byte streams through Codec.Recv, the
// decode path every control and shuffle message takes: corrupt frames
// and payloads must error, never panic, and any message that does
// decode must encode again.
func FuzzCodecRecv(f *testing.F) {
	var garbage bytes.Buffer
	codec.WriteFrame(&garbage, []byte{1, 2, 3})
	f.Add(garbage.Bytes())
	var msgs bytes.Buffer
	codec.WriteValue(&msgs, wireMsg{M: &Hello{ID: 1, ShuffleAddr: "127.0.0.1:1"}})
	codec.WriteValue(&msgs, wireMsg{M: &ShuffleResp{Chunks: []any{[]KV{{1, 2}}, nil, []SKV{{"a", 3}}}}})
	f.Add(msgs.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		c := &Codec{r: bufio.NewReader(bytes.NewReader(data))}
		for {
			m, err := c.Recv()
			if err != nil {
				return
			}
			if _, err := codec.Marshal(wireMsg{M: m}); err != nil {
				t.Fatalf("re-encode of decoded %T: %v", m, err)
			}
		}
	})
}
