"""End-to-end benchmark for the SubmitQueue reproduction (see bench/README.md)."""
