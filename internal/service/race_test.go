//go:build race

package service

func init() { raceDetectorEnabled = true }
