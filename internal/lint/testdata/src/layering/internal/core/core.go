// Package core may depend on the substrate below it.
package core

import (
	_ "github.com/crhkit/crh/internal/obs"
	_ "github.com/crhkit/crh/internal/stats"
)
