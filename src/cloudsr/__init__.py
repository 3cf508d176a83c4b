"""Edge-guided geometric super-resolution of RGB-D point clouds.

The pipeline densifies a sparse cloud, projects it onto the paired RGB
image, and iteratively moves the projected boundary (concave hull) onto
the image's detected edges by descending a combined chamfer / hausdorff /
smoothness loss.
"""

__version__ = "0.1.0"
