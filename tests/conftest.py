# chainlab pins BLAS to one thread only when it is imported before numpy;
# importing it here, before any test module loads numpy, pins the test
# process as it pins `chainlab run`.
import chainlab  # noqa: F401
