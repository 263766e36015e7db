"""The `analyze` bundle, manifests, fee economics and SVG charts."""
