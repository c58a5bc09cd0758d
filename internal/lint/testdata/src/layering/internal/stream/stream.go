// Package stream is a consumer layer: durability is the server's
// concern, so reaching into internal/wal from here is a violation.
package stream

import (
	_ "github.com/crhkit/crh/internal/wal" // want "internal/stream must not import internal/wal"
)
