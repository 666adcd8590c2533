"""Every threshold, dead band and floor the package decides by, named once.

A ``*_REL`` value multiplies the scale its comment names; an ``*_ABS`` value
is compared as it stands.  The README's Tolerances table says what each compares.
"""

# Linear algebra: floors, the realified rank oracle, invertibility, spectra.
SCALE_FLOOR = 1e-290  # least norm a relative test is scaled by
INV_FLOOR = 1e-300  # a quaternion or vector norm at or below this is not divided by
SQUARES_MIN = 2.0 ** -960  # a smaller sum of squares may have lost digits to underflow
RANK_PIVOT_REL = 1e-10  # least singular value threshold, times max(sigma_max, the term scale)
RANK_BAND = 10.0  # undecided band: one such factor to either side of that threshold
INVERTIBILITY_REL = 1e-12  # least singular value of the lift, times its largest
POLYEIG_RESIDUAL_REL = 1e-7  # largest relative action residual of an eigenpair
INVERSE_ITERATION_REL = 1e-10  # residual that ends inverse iteration, times max(||M||_F, 1)
ROOT_RESIDUAL_REL = 1e-10  # residual of a norm-polynomial root, times sum |c_i| r^i

# Zeros of scalar quaternion polynomials.
IDENTITY_ABS = 1e-12  # a coefficient equals the identity (monic, identity leading)
MULTIPLE_ROOT_REL = 1e-11  # offsets of a k-fold group of lift eigenvalues (matrix or scalar) within this to the 1/k, their power sums below it, in units of the root's scale
ROOT_CLUSTER_REL = 1e-7  # lift eigenvalues of no standing k-fold group join one within this, times the root's scale
SPHERE_REL = 1e-9  # remainder of a spherical zero set, or at x of a real one, times the polynomial scale; backward error at x of a real multiple matrix class
SLOPE_REL = 1e-12  # remainder slope with no isolated zero, times the polynomial scale

# Regions, verdicts, sampled numerical ranges and the hyperstability search.
BOUNDARY_BAND = 1e-9  # dead band around a region boundary, default of --boundary-band
FINITE_SET_REL = 1e-12  # a point matches a finite-set point p, times max(1, |p|)
UNIT_BALL_ABS = 1e-12  # region centered at 0 containing the closed unit ball
OMEGA_ZERO_ABS = 1e-12  # a probe point this short counts as 0
DRAW_NORM_MIN = 1e-12  # a random Gaussian draw shorter than this is drawn again
VANISHING_REL = 1e-13  # P(t) y vanishes, times max(||A_i||_F)
INDUCED_VANISHING_REL = 1e-12  # z* P(t) y vanishes, times max(||A_i y||)
DEGREE_TRIM_REL = 1e-12  # sampled coefficients below this times the largest are dropped
SPAN_ZERO_REL = 1e-14  # a realified span candidate this short is skipped, max(||A_i y||) scaled into [1/2, 1)
SPAN_INDEPENDENT_REL = 1e-10  # Gram-Schmidt remainder that adds a basis vector, times its start
PROPORTIONAL_REL = 1e-10  # A_0 y = (A_2 y) q residual, times max(||A_0 y||, ||A_2 y||)
MODULUS_BOUND_SLACK = 1e-6  # widening of the radius of the one ball the search's exclusion test must exclude, times max(1, |c| + radius)
PRODUCT_MODULUS_SLACK = 1e-12  # slack on |q| <= 1 in the quadratic product certificate
STRUCTURE_REL = 1e-14  # (block) triangular zeros, times max(1, largest entry modulus)

# Defaults of the approximate-equality helpers.
APPROX_EQ_ABS = 1e-12  # Quaternion.approx_eq and QuaternionMatrix.allclose
