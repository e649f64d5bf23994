# chainlab pins BLAS to one thread whatever loaded numpy first: before numpy
# through the thread variables, after it through the loaded OpenBLAS's own
# setter. Importing it here, before any test module loads numpy, pins the
# test process the way it pins `chainlab run`.
import chainlab  # noqa: F401
