"""Time-to-accuracy benchmark of mpcqp; see README.md in this directory."""
