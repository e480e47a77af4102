package loadgen

import (
	"context"
	"fmt"

	"pgridfile/internal/server"
)

// Send issues one synthesized op through the server's client and returns the
// answer's accounting; the rows themselves are dropped, a load run has no use
// for them.
func Send(ctx context.Context, c *server.Client, op Op) (server.QueryInfo, error) {
	var info server.QueryInfo
	var err error
	switch op.Kind {
	case OpPoint:
		_, info, err = c.PointCtx(ctx, op.Key)
	case OpRange:
		_, info, err = c.RangeCtx(ctx, op.Rect)
	case OpRangeCount:
		_, info, err = c.RangeCountCtx(ctx, op.Rect)
	case OpPartialMatch:
		_, info, err = c.PartialMatchCtx(ctx, op.Key)
	case OpKNN:
		_, info, err = c.KNNCtx(ctx, op.Key, op.K)
	default:
		err = fmt.Errorf("loadgen: unmapped op kind %v", op.Kind)
	}
	return info, err
}
