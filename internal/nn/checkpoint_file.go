package nn

import (
	"fmt"
	"os"
	"path/filepath"
)

// File checkpointing is crash-safe by construction: SaveTrainingFile writes
// the full stream to a temporary file in the target directory, syncs it,
// and renames it over the destination. A process (or simulated replica)
// dying mid-save leaves either the previous complete checkpoint or none —
// never a torn file — so elastic recovery can always trust what it loads.

// SaveTrainingFile atomically writes a training checkpoint to path.
func SaveTrainingFile(path string, opt Optimizer) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("nn: creating checkpoint temp file: %w", err)
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err = SaveTraining(tmp, opt); err != nil {
		return err
	}
	// Sync before rename: the rename must never become visible ahead of
	// the data it points at.
	if err = tmp.Sync(); err != nil {
		return fmt.Errorf("nn: syncing checkpoint: %w", err)
	}
	if err = tmp.Close(); err != nil {
		return fmt.Errorf("nn: closing checkpoint temp file: %w", err)
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("nn: publishing checkpoint: %w", err)
	}
	return nil
}

// LoadTrainingFile restores a training checkpoint written by
// SaveTrainingFile.
func LoadTrainingFile(path string, opt Optimizer) error {
	ckpt, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("nn: reading checkpoint: %w", err)
	}
	return Restore(opt, ckpt)
}
