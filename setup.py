import os

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class optional_build_ext(build_ext):
    """Build the speedup extension if possible, fall back to pure Python."""

    def run(self):
        try:
            super().run()
        except Exception as exc:
            print(f"warning: building the compiled kernel failed ({exc}); "
                  "the pure-Python fallback will be used")

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:
            print(f"warning: {ext.name} failed to compile ({exc}); "
                  "the pure-Python fallback will be used")


ext_modules = []
if not os.environ.get("WREATH_CENTERS_NO_EXT"):
    try:
        from Cython.Build import cythonize
    except ImportError:
        # _speedups.c, generated by Cython from _speedups.pyx, is tracked,
        # so a C compiler alone builds the same extension
        cythonize = None
    source = "_speedups.pyx" if cythonize else "_speedups.c"
    ext_modules = [Extension("wreath_centers._speedups",
                             ["src/wreath_centers/" + source],
                             extra_compile_args=["-O3"])]
    if cythonize:
        ext_modules = cythonize(ext_modules, language_level=3)

setup(ext_modules=ext_modules, cmdclass={"build_ext": optional_build_ext})
